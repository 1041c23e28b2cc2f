import hashlib
import json

import pytest

from erl import (Signature, enumerate_models, load_model, make_model,
                 model_to_json, sample_models, validate_model)
from erl.errors import BudgetTooLarge, ModelError
from erl.models import BLOCK, enumerate_blocks, star_compat_violation

from oracles import count_models_bruteforce


def paper_countermodel():
    """The eight-world model extracted from the open modal-nesting branch."""
    sig = Signature.make(["a"], ["e", "r", "s"])
    return make_model(
        sig,
        ["e", "r", "s", "c1", "c2", "c3", "c1.s", "c2.r"],
        [("s", "c1", "c1.s"), ("r", "c2", "c2.r")],
        {"a": [("c1.s", "c2"), ("c2.r", "c3")]},
        {"p": ["c2", "c1.s"]},
    )


def test_validate_singleton():
    sig = Signature.make(["a"], ["e"])
    m = make_model(sig, ["e"])
    assert validate_model(m, "erl") == []
    assert validate_model(m, "erl-star") == []


def test_validate_paper_model_and_compat():
    m = paper_countermodel()
    assert validate_model(m, "erl") == []
    violations = validate_model(m, "erl-star")
    assert violations and violations[0].axiom == "Compatibility"
    agent, r, r2, s = star_compat_violation(m)
    # c2 ~a c1.s, c2.r is defined but c1.s cannot compose with r
    pair = {m.carrier[r], m.carrier[r2]}
    assert (agent, pair, m.carrier[s]) == ("a", {"c2", "c1.s"}, "r")


def test_validate_broken_equivalence():
    sig = Signature.make(["a"], ["e"])
    m = make_model(sig, ["e", "w1"], [], {"a": [("e", "w1")]})
    # tamper with the mask structure directly
    m.classmask["a"][0] = 1
    violations = validate_model(m, "erl")
    assert violations and violations[0].axiom == "Equivalence"


def test_compose_unit_and_table():
    m = paper_countermodel()
    for w in m.carrier:
        assert m.compose("e", w) == w
    assert m.compose("s", "c1") == "c1.s"
    assert m.compose("c1", "s") == "c1.s"
    assert m.compose("r", "c2") == "c2.r"
    assert m.compose("r", "s") is None
    assert m.compose("c3", "c1.s") is None


def test_extension_violations():
    sig = Signature.make([], ["e", "r", "s", "t"], composition=[("r", "s", "t")])
    m = make_model(sig, ["e", "r", "s", "t"])
    violations = validate_model(m, "erl")
    assert violations and violations[0].axiom == "Extension"
    ok = make_model(sig, ["e", "r", "s", "t"], [("r", "s", "t")])
    # r.s = t forces more associativity products to exist, so this small
    # carrier is fine only if nothing else composes
    assert validate_model(ok, "erl") == []


def test_enumerate_tiny():
    sig = Signature.make(["a"], ["e"])
    models = list(enumerate_models(sig, 0, ["p"], "erl"))
    assert len(models) == 2
    assert {frozenset(m.mask_worlds(m.atom_mask("p"))) for m in models} == \
        {frozenset(), frozenset({"e"})}


def test_enumerate_counts_match_bruteforce():
    sig = Signature.make(["a"], ["e"])
    ours = list(enumerate_models(sig, 1, [], "erl", min_extra=1))
    assert len(ours) == count_models_bruteforce(1, ["a"], [])
    assert len(ours) == 6
    star = list(enumerate_models(sig, 1, [], "erl-star", min_extra=1))
    assert len(star) == 5


def test_enumerate_all_validate_and_unique():
    sig = Signature.make(["a"], ["e"])
    seen = set()
    for m in enumerate_models(sig, 2, ["p"], "erl"):
        key = m.key()
        assert key not in seen
        seen.add(key)
        assert validate_model(m, "erl") == []
    assert seen


@pytest.mark.parametrize("resources,atoms,logic,count,digest", [
    (["e", "s"], ["p"], "erl", 15896,
     "8cc453d8a3c3115480b33927902d01c96db2dbe7e4465304c8383930ae57f75a"),
    (["e"], ["p", "q"], "erl-star", 1564,
     "9b4abb4a5cc4125ac3fbd3b157928702625ba3f72be358ea606db3c970a64bea"),
], ids=["erl", "erl-star"])
def test_enumeration_order_is_pinned(resources, atoms, logic, count, digest):
    # the digests were taken before valuation blocks were shared among
    # frames: sharing must not change which models come, nor their order
    h = hashlib.sha256()
    n = 0
    for m in enumerate_models(Signature.make(["a"], resources), 2, atoms, logic):
        h.update(repr(m.key()).encode() + b"\n")
        n += 1
    assert (n, h.hexdigest()) == (count, digest)


def test_frames_share_valuation_blocks():
    # Frames with as many worlds and the same stabilizer share their one
    # block: over e plus up to two fresh worlds, there is one one-world
    # frame, and the three-world frames have two stabilizers (with and
    # without the swap of the fresh worlds).  Three atoms on three worlds
    # take two blocks per frame, which are not shared.
    sig = Signature.make(["a"], ["e"])
    for atoms, shared in ((["p"], {2: 1, 3: 2}), (["p", "q", "x"], {2: 1})):
        frames = {}                       # id(block) -> (block, its frames)
        for frame, block in enumerate_blocks(sig, 2, atoms, "erl"):
            frames.setdefault(id(block), (block, []))[1].append(frame)
        worlds = {}
        for block, fs in frames.values():
            assert len({f.n for f in fs}) == 1
            if len(fs) > 1:
                worlds[fs[0].n] = worlds.get(fs[0].n, 0) + 1
            assert len(block.valuations) <= BLOCK
        assert worlds == shared, atoms


def test_enumerate_star_all_compatible():
    sig = Signature.make(["a"], ["e", "s"])
    n = 0
    for m in enumerate_models(sig, 1, [], "erl-star"):
        n += 1
        assert star_compat_violation(m) is None
    assert n > 0


def test_enumerate_budget_guard():
    sig = Signature.make(["a"], ["e"])
    with pytest.raises(BudgetTooLarge):
        list(enumerate_models(sig, 3, ["p", "q", "r"], "erl", cap=1000))


def test_sampling_fallback_validates():
    sig = Signature.make(["a"], ["e", "s"])
    models = list(sample_models(sig, 2, ["p"], "erl-star", seed=5, count=25))
    assert len(models) == 25
    for m in models:
        assert validate_model(m, "erl-star") == []
    again = [m.key() for m in sample_models(sig, 2, ["p"], "erl-star", seed=5,
                                            count=25)]
    assert again == [m.key() for m in models]


def test_model_json_roundtrip(tmp_path):
    m = paper_countermodel()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(m, world="c1")))
    loaded, world = load_model(str(path))
    assert world == "c1"
    assert loaded.key() == m.key()
    with pytest.raises(ModelError):
        load_model({"carrier": ["e"], "composition": []})


def test_make_model_errors():
    sig = Signature.make(["a"], ["e", "s"])
    with pytest.raises(ModelError):
        make_model(sig, ["e"])  # missing resource s
    with pytest.raises(ModelError):
        make_model(sig, ["e", "s"], [("s", "s", "zz")])
    with pytest.raises(ModelError):
        make_model(sig, ["e", "s", "w1"],
                   [("s", "s", "w1"), ("s", "s", "e")])
    with pytest.raises(ModelError):
        make_model(sig, ["e", "s"], [], {"zz": [("e", "s")]})  # unknown agent
