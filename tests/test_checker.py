import random

import pytest

from erl import (Atom, Modal, Not, Signature, Top, Unit, CDUAL, C,
                 enumerate_models, expand_duals, find_countermodel,
                 make_model, parse_formula, satisfies, satisfies_direct,
                 term_of, truth_set, valid_in_model)
from erl.checker import WorldNotInCarrier, explain
from erl.syntax import MODAL_OPS, UNIVERSAL

from conftest import random_formula
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
