import random
from itertools import product

import pytest

from erl import (Atom, Modal, Not, Signature, Top, Unit, CDUAL, C,
                 enumerate_models, find_countermodel,
                 make_model, model_to_json, parse_formula, sample_models, satisfies,
                 satisfies_direct, term_of, truth_set, valid_in_model)
from erl.checker import WorldNotInCarrier, explain
from erl.models import TABLES
from erl.syntax import MODAL_OPS, UNIVERSAL, atoms_of, subformulas

from conftest import random_formula
from oracles import expand_duals, forget_frames
from test_models import paper_countermodel


def test_unit_holds_at_unit_only():
    sig = Signature.make(["a"], ["e"])
    m = make_model(sig, ["e", "w1"])
    assert satisfies(m, "e", Unit())
    assert not satisfies(m, "w1", Unit())


def test_paper_model_falsifies_nested_box():
    m = paper_countermodel()
    phi = parse_formula("[C a; s] p -> [C a; s] [C a; r] p", m.sig)
    # the six verification steps
    assert satisfies(m, "c2", Atom("p"))                                  # 1
    assert satisfies(m, "c1", parse_formula("[C a; s] p", m.sig))         # 2
    assert not satisfies(m, "c3", Atom("p"))                              # 3
    assert not satisfies(m, "c2", parse_formula("[C a; r] p", m.sig))     # 4
    assert not satisfies(m, "c1", parse_formula("[C a; s] [C a; r] p", m.sig))  # 5
    assert not satisfies(m, "c1", phi)                                    # 6
    ok, world = valid_in_model(m, phi)
    assert not ok and world == "c1"


def test_vacuous_box_when_undefined():
    m = paper_countermodel()
    # c3 composes with nothing but the unit
    assert satisfies(m, "c3", parse_formula("[C a; s] bot", m.sig))
    # the dual is the negation: false where the composition is undefined
    assert not satisfies(m, "c3", parse_formula("<C a; s> top", m.sig))
    assert not satisfies_direct(m, "c3", Modal(CDUAL, "a",
                                               term_of(["s"], m.sig), Top()))


def test_valid_in_model_trivia():
    m = paper_countermodel()
    assert valid_in_model(m, parse_formula("p -> p", m.sig)) == (True, None)
    assert valid_in_model(m, Top()) == (True, None)


def test_world_not_in_carrier():
    m = paper_countermodel()
    with pytest.raises(WorldNotInCarrier):
        satisfies(m, "nope", Top())


def test_find_countermodel_tautology():
    sig = Signature.make([], ["e"])
    assert find_countermodel(parse_formula("p -> p", sig), sig, 3, "erl") is None


def test_find_countermodel_dd_converse():
    sig = Signature.make(["a"], ["e", "s", "t"])
    phi = parse_formula("[D a; t] [D a; s] p -> [D a; s] p", sig)
    found = find_countermodel(phi, sig, 4, "erl-star")
    assert found is not None
    m, world = found
    assert not satisfies(m, world, phi)
    from erl import validate_model
    assert validate_model(m, "erl-star") == []


def test_find_countermodel_nested_box():
    sig = Signature.make(["a"], ["e", "r", "s"])
    phi = parse_formula("[C a; s] p -> [C a; s] [C a; r] p", sig)
    found = find_countermodel(phi, sig, 4, "erl")
    assert found is not None
    m, world = found
    assert not satisfies(m, world, phi)


def test_three_routes_agree():
    sig = Signature.make(["a"], ["e", "s"])
    rng = random.Random(11)
    corpus = [random_formula(rng, sig, depth=3) for _ in range(25)]
    models = list(enumerate_models(sig, 1, ["p", "q"], "erl"))
    for m in models[::17]:
        for phi in corpus:
            ts = truth_set(m, phi)
            assert ts == truth_set(m, expand_duals(phi))
            for w in m.carrier:
                got = bool(ts >> m.index[w] & 1)
                assert satisfies_direct(m, w, phi) == got
                assert satisfies_direct(m, w, expand_duals(phi)) == got


def test_dual_equivalence_sampled_carrier_four():
    from erl import sample_models
    sig = Signature.make(["a"], ["e", "s"])
    rng = random.Random(3)
    corpus = [random_formula(rng, sig, depth=3) for _ in range(10)]
    for m in sample_models(sig, 2, ["p", "q"], "erl", seed=9, count=30):
        for phi in corpus:
            assert truth_set(m, phi) == truth_set(m, expand_duals(phi))


def test_modal_term_laws_semantically():
    sig = Signature.make(["a"], ["e", "r", "s"])
    unit_padded = parse_formula("[C a; r.e] p", sig)
    plain = parse_formula("[C a; r] p", sig)
    assert unit_padded == plain  # normalization makes this syntactic
    swapped = parse_formula("([C a; r.s] p -> [C a; s.r] p) & "
                            "([C a; s.r] p -> [C a; r.s] p)", sig)
    for m in list(enumerate_models(sig, 1, ["p"], "erl"))[::29]:
        assert valid_in_model(m, swapped)[0]


def test_explain_witnesses():
    m = paper_countermodel()
    j = explain(m, "c1", parse_formula("[C a; s] [C a; r] p", m.sig))
    assert not j.verdict
    assert j.witness["combination"] == "c1.s"
    assert j.witness["partner"] in ("c2", "c1.s")
    j = explain(m, "c1.s", parse_formula("p * top", m.sig))
    assert j.verdict and j.witness["split"] == ["c1.s", "e"]
    j = explain(m, "c1", parse_formula("p * top", m.sig))
    assert not j.verdict and j.witness["splits_checked"] == [["e", "c1"], ["c1", "e"]]
    j = explain(m, "c2", parse_formula("!p", m.sig))
    assert not j.verdict and [b["verdict"] for b in j.witness["because"]] == [True]
    j = explain(m, "c1", parse_formula("top -* !p", m.sig))
    assert not j.verdict and j.witness["extension"] == ["s", "c1.s"]
    assert [b["world"] for b in j.witness["because"]] == ["s", "c1.s"]


@pytest.mark.parametrize("term", ["e", "r", "s", "r.s"])
@pytest.mark.parametrize("op", MODAL_OPS)
def test_modality_partners(op, term):
    # the paper model leaves r.s undefined, and r.t undefined for most r
    m = paper_countermodel()
    phi = Modal(op, "a", term_of(term.split("."), m.sig), Atom("p"))
    ts = truth_set(m, phi)
    p = truth_set(m, Atom("p"))
    universal = op in UNIVERSAL
    for w in m.carrier:
        verdict = bool(ts >> m.index[w] & 1)
        assert satisfies_direct(m, w, phi) == verdict
        witness = explain(m, w, phi).witness
        if "partner" in witness:
            # a failing partner refutes a universal modality, a satisfying
            # one proves an existential modality
            assert verdict != universal
            assert bool(p >> m.index[witness["partner"]] & 1) == verdict
        else:
            # no such partner among the partners listed (none where the
            # term or the combination is undefined)
            assert ("partners" in witness) != ("note" in witness)
            body = [bool(p >> m.index[v] & 1)
                    for v in witness.get("partners", [])]
            assert verdict == (all(body) if universal else any(body))
            assert verdict == universal


# ---------------------------------------------------------------------------
# The bulk evaluator against the naive one, world by world


def differential_corpus(sig, count, seed):
    """Seeded formulas over atoms p, q and x that, together, use every
    connective and all six modalities."""
    rng = random.Random(seed)
    corpus = [random_formula(rng, sig, depth=3, atoms=("p", "q", "x"))
              for _ in range(count)]
    kinds = {f.op if isinstance(f, Modal) else type(f).__name__
             for phi in corpus for f in subformulas(phi)}
    assert kinds >= {"Atom", "Top", "Bot", "Unit", "Not", "And", "Or",
                     "Implies", "Star", "Wand", *MODAL_OPS}, kinds
    assert any(Atom("x") in subformulas(phi) for phi in corpus)
    return corpus


def assert_agrees(m, phi):
    ts = truth_set(m, phi)
    for w in m.carrier:
        assert satisfies_direct(m, w, phi) == bool(ts >> m.index[w] & 1), \
            (m.key(), w, phi)


@pytest.mark.parametrize("logic", ["erl", "erl-star"])
def test_truth_set_matches_direct_on_every_enumerated_model(logic):
    # x lies outside the enumerated atoms, so it is false everywhere.  Each
    # model checks one formula, in turn, so every frame's table of every
    # formula is read at some valuation.
    sig = Signature.make(["a"], ["e", "s"])
    corpus = differential_corpus(sig, 40, 23)
    count = 0
    for k, m in enumerate(enumerate_models(sig, 2, ["p", "q"], logic)):
        assert_agrees(m, corpus[k % len(corpus)])
        count += 1
    assert count == {"erl": 250_016, "erl-star": 50_384}[logic]


def test_truth_set_matches_direct_across_blocks():
    # Three atoms on three worlds give 512 valuations per frame, more than
    # one block holds.  Walking the models backwards evaluates each frame's
    # later block first, then an earlier one, for the same formulas.
    sig = Signature.make(["a"], ["e"])
    corpus = differential_corpus(sig, 40, 37)
    models = [m for m in enumerate_models(sig, 2, ["p", "q", "r"], "erl")
              if m.n == 3]
    blocks = {id(m.frame): set() for m in models}
    for m in models:
        blocks[id(m.frame)].add(id(m.block))
    assert min(map(len, blocks.values())) > 1
    for k, m in enumerate(reversed(models)):
        assert_agrees(m, corpus[k % len(corpus)])


def test_truth_set_matches_direct_on_sampled_models():
    sig = Signature.make(["a"], ["e", "s"])
    corpus = differential_corpus(sig, 40, 29)
    for m in sample_models(sig, 3, ["p", "q"], "erl", seed=4, count=40):
        for phi in corpus:
            assert_agrees(m, phi)


def test_find_countermodel_matches_naive_scan():
    # Over resource e alone, bound 3 adds two fresh worlds, whose swap
    # stabilizes some frames: frames then share valuation blocks under
    # several keys.  Formulas over all three atoms have up to 512
    # valuations on three worlds, two blocks per frame, which are streamed:
    # the first of them is falsified only where p holds at all three
    # worlds, in a frame's second block; the second is valid.
    for resources, logic in product([["e", "s"], ["e"]], ["erl", "erl-star"]):
        sig = Signature.make(["a"], resources)
        corpus = differential_corpus(sig, 40, 31) + [parse_formula(text, sig) for text in (
            "p & q & !I & (x | !x) & <C a; e> (p & !q & !I) -> [C a; e] (I -> !p)",
            "p & q & x -> p",
            "p & q & x & !I -> [C a; e] (p & q & x | I)")]
        later_blocks = 0
        for phi in corpus:
            naive = next(((m.key(), w)
                          for m in enumerate_models(sig, 3 - len(resources),
                                                    atoms_of(phi), logic)
                          for w in m.carrier if not satisfies_direct(m, w, phi)),
                         None)
            found = find_countermodel(phi, sig, 3, logic)
            assert (None if found is None else (found[0].key(), found[1])) == naive
            # a frame's first block starts at the empty valuation
            later_blocks += found is not None and any(
                found[0].block.valuations[0].values())
        assert later_blocks, (resources, logic)


def test_dropped_formulas_leave_no_stale_rows():
    # A formula's id may be reused once the formula is freed; the model's
    # tables must not serve the old formula's rows for a new one.  The loop
    # runs past TABLES formulas, so the model also drops its tables on the
    # way, and must hold no more than TABLES of them at any point.
    sig = Signature.make(["a"], ["e", "s"])
    m, _ = find_countermodel(parse_formula("p -> [C a; s] p", sig), sig, 3,
                             "erl")
    shapes = [Atom("p"), Not(Atom("p")), Top(), Not(Top()), Unit(),
              Not(Unit())]
    sizes = []
    for k in range(TABLES + 300):
        phi = Not(shapes[k % len(shapes)])
        assert_agrees(m, phi)
        sizes.append(len(m.tables))
        del phi
    assert max(sizes) == TABLES
    assert sizes[-1] < TABLES


def test_find_countermodel_same_cold_and_warm():
    # The frames a search reads are kept for later calls; a warm search,
    # handed the very frames the cold one read, must return what it did.
    sig = Signature.make(["a"], ["e", "r", "s"])
    for logic in ("erl", "erl-star"):
        for phi in differential_corpus(sig, 30, 17) + [
                parse_formula("<D a; r> <D a; s> p -> <D a; s> p", sig)]:
            runs = []
            for _ in range(2):
                forget_frames()
                for _ in range(2):
                    found = find_countermodel(phi, sig, 4, logic)
                    runs.append(None if found is None
                                else model_to_json(*found))
            assert runs[1:] == runs[:1] * 3
