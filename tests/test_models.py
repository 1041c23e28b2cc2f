import hashlib
import json
from itertools import islice, zip_longest

import pytest

from erl import (Signature, checker, models, parse_formula, enumerate_models, load_model, make_model,
                 model_to_json, sample_models, validate_model)
from erl.errors import BudgetTooLarge, ModelError
from erl.models import (BLOCK, DEFAULT_STREAM_CAP, Frame,
                        enumerate_blocks, estimate_stream,
                        star_compat_violation)

from oracles import count_models_bruteforce, forget_frames


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
    ours = [m for m in enumerate_models(sig, 1, [], "erl") if m.n == 2]
    assert len(ours) == count_models_bruteforce(1, ["a"], [])
    assert len(ours) == 6
    star = [m for m in enumerate_models(sig, 1, [], "erl-star") if m.n == 2]
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


def test_enumerate_budget_guard(monkeypatch):
    # four fresh worlds and three atoms put the estimate near 1e14, past
    # the default cap; three fresh worlds stay below it (about 9.6e8)
    sig = Signature.make(["a"], ["e"])
    atoms = ["p", "q", "r"]
    assert estimate_stream(sig, 3, atoms) <= DEFAULT_STREAM_CAP
    with pytest.raises(BudgetTooLarge):
        next(enumerate_models(sig, 4, atoms, "erl"))
    # Large carrier bounds are refused without building their partitions:
    # Bell(13) alone is 27.6 million of them.
    partitions = models._partitions

    def small_partitions(n):
        if n > 8:
            raise AssertionError(f"built the partitions of {n} worlds")
        return partitions(n)

    monkeypatch.setattr(models, "_partitions", small_partitions)
    sig = Signature.make(["a"], ["e", "r", "s"])
    for bound in (12, 13, 40):
        with pytest.raises(BudgetTooLarge):
            next(enumerate_models(sig, bound - len(sig.resources), ["p"], "erl"))


def test_sampling_fallback_validates():
    sig = Signature.make(["a"], ["e", "s"])
    models = list(sample_models(sig, 2, ["p"], "erl-star", seed=5, count=25))
    assert len(models) == 25
    for m in models:
        assert validate_model(m, "erl-star") == []
    again = [m.key() for m in sample_models(sig, 2, ["p"], "erl-star", seed=5,
                                            count=25)]
    assert again == [m.key() for m in models]


@pytest.mark.parametrize("agents,resources,logic,seed,digest", [
    (["a"], ["e", "s"], "erl", 0,
     "7870c02f48768ab43f3105a14f2c3b82589fad2ea1d073412d57ac8efa3be3ff"),
    (["a"], ["e", "s"], "erl", 7,
     "1d321f7fb8ef2ab15f8caf33803d03168bc2e1c62d49ee58a1e668e10790b1b7"),
    (["a"], ["e", "s"], "erl-star", 0,
     "1a3c8825572c067e8db6b807713cde0de6fb6f7c8854c09b4603568fccfa816b"),
    (["a"], ["e", "s"], "erl-star", 7,
     "168890b6ebe299a9c5fd790bc1625fedb7b0c538c95612db28a97d47df518a68"),
    (["a", "b"], ["e", "r", "s"], "erl", 0,
     "390abb40beb30a95cd0ca4af95866bdb767ac41d08b0f14434937a5623777725"),
    (["a", "b"], ["e", "r", "s"], "erl", 7,
     "0e893691d1aba2652f0e6d3b4c2d61f8f28383c8f194b0a6bf17e55de561ec09"),
    (["a", "b"], ["e", "r", "s"], "erl-star", 0,
     "6387d80a1565b08683a307b5d725f8f0957c0f5952754ccabfeb6ec0bb1159bd"),
    (["a", "b"], ["e", "r", "s"], "erl-star", 7,
     "31c1de2fc661d99ae6765e77af88f9c533e6db0709c38ab56ce896adb537af9a"),
], ids=["a-es-erl-0", "a-es-erl-7", "a-es-star-0", "a-es-star-7",
        "ab-ers-erl-0", "ab-ers-erl-7", "ab-ers-star-0", "ab-ers-star-7"])
def test_sampled_models_are_pinned(agents, resources, logic, seed, digest):
    # the digests pin which random models a seed draws, and their order
    h = hashlib.sha256()
    for m in sample_models(Signature.make(agents, resources), 2, ["p"], logic,
                           seed=seed, count=20):
        h.update(repr(m.key()).encode() + b"\n")
    assert h.hexdigest() == digest


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
        make_model(sig, ["e", "s"], [("e", "s", "e")])  # e.s must be s
    with pytest.raises(ModelError):
        make_model(sig, ["e", "s"], [], {"zz": [("e", "s")]})  # unknown agent


@pytest.mark.parametrize("k", [5, -1])
def test_frame_rejects_cell_outside_carrier(k):
    # a cell value past the carrier would index no world, and a negative
    # one would wrap round to the last world
    sig = Signature.make(["a"], ["e", "s"])
    with pytest.raises(ModelError, match="outside the carrier"):
        Frame(sig, ("e", "s"), {(1, 1): k}, {"a": [1, 2]}, {"a": []})


class Interrupt(BaseException):
    pass


def test_interrupted_level_is_enumerated_again(monkeypatch):
    # An exception while a level is being extended kills its generator;
    # the frames read so far must not pass for the whole level later.
    sig = Signature.make(["a"], ["e", "r", "s"])
    forget_frames()
    full = len(list(enumerate_blocks(sig, 1, ["p"], "erl-star")))
    assert full == 76
    forget_frames()
    calls = 0

    def failing(frame):
        nonlocal calls
        calls += 1
        if calls == 50:
            raise Interrupt
        return star_compat_violation(frame)

    monkeypatch.setattr(models, "star_compat_violation", failing)
    with pytest.raises(Interrupt):
        list(enumerate_blocks(sig, 1, ["p"], "erl-star"))
    assert len(list(enumerate_blocks(sig, 1, ["p"], "erl-star"))) == full
    assert len(list(enumerate_blocks(sig, 1, ["p"], "erl-star"))) == full


def test_reader_of_interrupted_level_reads_it_whole(monkeypatch):
    # A stream that read part of a level before another call's extension
    # of it failed goes on with the level enumerated again.
    sig = Signature.make(["a"], ["e", "r", "s"])
    forget_frames()
    alone = [m.key() for m in enumerate_models(sig, 1, ["p"], "erl-star")]
    forget_frames()
    held = enumerate_models(sig, 1, ["p"], "erl-star")
    keys = [next(held).key() for _ in range(3)]

    def failing(frame):
        raise Interrupt

    monkeypatch.setattr(models, "star_compat_violation", failing)
    with pytest.raises(Interrupt):
        list(enumerate_models(sig, 1, ["p"], "erl-star"))
    monkeypatch.undo()
    assert keys + [m.key() for m in held] == alone


def test_interleaved_streams_match_one_alone():
    sig = Signature.make(["a"], ["e", "s"])
    forget_frames()
    alone = [m.key() for m in enumerate_models(sig, 2, ["p"], "erl")]
    forget_frames()
    first = enumerate_models(sig, 2, ["p"], "erl")
    second = enumerate_models(sig, 2, ["p"], "erl")
    got1, got2 = [], []
    # the first stream runs ahead, then the second overtakes it
    for m in islice(first, 500):
        got1.append(m.key())
    for m in islice(second, 3000):
        got2.append(m.key())
    for a, b in zip_longest(first, second):
        if a is not None:
            got1.append(a.key())
        if b is not None:
            got2.append(b.key())
    assert got1 == alone
    assert got2 == alone


def test_calls_never_share_tables():
    # The kept frames are handed out as they are and hold no tables.  The
    # models of one (frame, block) pair share one table dict; those of
    # another block or another call have their own, and so does a witness.
    # Three atoms give the three-world frames two blocks each.
    sig = Signature.make(["a"], ["e", "s"])
    phi = parse_formula("[C a; s] (p | q) -> r", sig)
    calls = []
    for _ in range(2):
        groups = []                   # (frame, block, tables), held alive
        for m in enumerate_models(sig, 1, ["p", "q", "r"], "erl"):
            if groups and groups[-1][:2] == (m.frame, m.block):
                assert m.tables is groups[-1][2]
            else:
                groups.append((m.frame, m.block, m.tables))
            checker.truth_set(m, phi)
            assert id(phi) in m.tables
        assert len({id(t) for _, _, t in groups}) == len(groups)
        assert len({id(b) for _, b, _ in groups}) > len({id(f) for f, _, _ in groups})
        calls.append(groups)
    first, second = calls
    assert [f for f, _, _ in first] == [f for f, _, _ in second]
    assert all(a is b for (a, _, _), (b, _, _) in zip(first, second))
    assert not {id(t) for _, _, t in first} & {id(t) for _, _, t in second}
    witnesses = [checker.find_countermodel(phi, sig, 3, "erl")[0]
                 for _ in range(2)]
    assert witnesses[0].tables and witnesses[0].tables is not witnesses[1].tables
    assert witnesses[0].frame is witnesses[1].frame
    held = {id(t) for groups in calls for _, _, t in groups}
    assert not {id(w.tables) for w in witnesses} & held
    for level in models._levels.values():
        assert not any(hasattr(kept, "tables") for kept, _ in level.frames)