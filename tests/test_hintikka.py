import random

import pytest

from erl import (Atom, RunConfig, Signature, Star, find_countermodel,
                 parse_formula, prove)
from erl.errors import NotHintikka
from erl.hintikka import (build_index, extract_model, is_hintikka,
                          verify_extraction)
from erl.labels import AgentEq, Closure, ResEq, label, lmul
from erl.models import (load_model, model_to_json, validate_model,
                        star_compat_violation)
from erl.tableaux import (RULES, Branch, SignedFormula, Tableau, _saturated,
                          rule_for)

from conftest import random_formula
from test_acceptance import _regression_set

C1, C2, C3 = label("c1"), label("c2"), label("c3")
LS, LR = label("s"), label("r")


def sig_rs():
    return Signature.make(["a"], ["e", "r", "s"])


def paper_branch(sig):
    """The saturated open branch of the nested-box example."""
    p = Atom("p")
    box_s_p = parse_formula("[C a; s] p", sig)
    box_r_p = parse_formula("[C a; r] p", sig)
    nested = parse_formula("[C a; s] [C a; r] p", sig)
    root = parse_formula("[C a; s] p -> [C a; s] [C a; r] p", sig)
    c1s, c2r = lmul(C1, LS), lmul(C2, LR)
    formulas = {
        SignedFormula("F", root, C1),
        SignedFormula("T", box_s_p, C1),
        SignedFormula("F", nested, C1),
        SignedFormula("F", box_r_p, C2),
        SignedFormula("F", p, C3),
        SignedFormula("T", p, C2),
        SignedFormula("T", p, c1s),   # forced by the reflexive partner
    }
    closure = Closure.close(
        [ResEq(C1, C1), AgentEq("a", c1s, C2), AgentEq("a", c2r, C3)],
        ["a"])
    return formulas, closure


def test_paper_branch_is_hintikka():
    sig = sig_rs()
    formulas, closure = paper_branch(sig)
    assert is_hintikka(formulas, closure, sig) is None


def test_missing_reflexive_partner_violates_box_condition():
    sig = sig_rs()
    formulas, closure = paper_branch(sig)
    formulas = {sf for sf in formulas
                if sf != SignedFormula("T", Atom("p"), lmul(C1, LS))}
    verdict = is_hintikka(formulas, closure, sig)
    assert verdict is not None and verdict[0] == 18


def test_saturated_reports_the_violated_condition():
    # a saturated branch that is not Hintikka is marked with the condition
    # the extraction's check found, and yields no refutation
    sig = sig_rs()
    formulas, closure = paper_branch(sig)
    t = Tableau(parse_formula("[C a; s] p -> [C a; s] [C a; r] p", sig), sig)
    b = Branch(0, closure)
    for sf in formulas - {SignedFormula("T", Atom("p"), lmul(C1, LS))}:
        (b.t_labels if sf.sign == "T" else b.f_labels).setdefault(
            sf.formula, set()).add(sf.label)
    assert _saturated(t, b) is None
    assert b.hintikka_state == "violated(18)"


def test_clash_is_condition_1():
    sig = sig_rs()
    closure = Closure.close([ResEq(C1, C1)], ["a"])
    formulas = {SignedFormula("T", Atom("p"), C1),
                SignedFormula("F", Atom("p"), C1)}
    verdict = is_hintikka(formulas, closure, sig)
    assert verdict is not None and verdict[0] == 1


def test_unsplit_star_is_condition_14():
    sig = sig_rs()
    closure = Closure.close([ResEq(C1, C1)], ["a"])
    formulas = {SignedFormula("T", Star(Atom("p"), Atom("q")), C1)}
    verdict = is_hintikka(formulas, closure, sig)
    assert verdict is not None and verdict[0] == 14


# The lone signed formula of each rule, in the order of conditions 5-29.
SATURATION_CASES = [
    ("T", "I"), ("T", "!p"), ("F", "!p"), ("T", "p & q"), ("F", "p & q"),
    ("T", "p | q"), ("F", "p | q"), ("T", "p -> q"), ("F", "p -> q"),
    ("T", "p * q"), ("F", "p * q"), ("T", "p -* q"), ("F", "p -* q"),
    ("T", "[C a; e] p"), ("F", "[C a; e] p"), ("T", "<D a; e> p"),
    ("F", "<D a; e> p"), ("T", "[E a; e] p"), ("F", "[E a; e] p"),
    ("T", "<C a; e> p"), ("F", "<C a; e> p"), ("T", "[D a; e] p"),
    ("F", "[D a; e] p"), ("T", "<E a; e> p"), ("F", "<E a; e> p"),
]


@pytest.mark.parametrize("index,sign,text", [
    (i, sign, text) for i, (sign, text) in enumerate(SATURATION_CASES, start=5)])
def test_unsaturated_rule_reports_its_condition(index, sign, text):
    sig = sig_rs()
    sf = SignedFormula(sign, parse_formula(text, sig), C1)
    assert rule_for(sf) == RULES[index - 5]
    closure = Closure.close([ResEq(C1, C1)], ["a"])
    verdict = is_hintikka({sf}, closure, sig)
    assert verdict is not None and verdict[0] == index


def test_extraction_of_paper_model():
    sig = sig_rs()
    formulas, closure = paper_branch(sig)
    model, world, index = extract_model(formulas, closure, sig,
                                        designated=C1)
    assert index.warnings == []
    assert world == "c1"
    assert model.carrier == ("e", "r", "s", "c1", "c2", "c3", "c1.s", "c2.r")
    assert model.compose("s", "c1") == "c1.s"
    assert model.compose("r", "c2") == "c2.r"
    defined = {(a, b) for a in model.carrier for b in model.carrier
               if model.compose(a, b) is not None}
    expected = {(a, "e") for a in model.carrier} | \
        {("e", a) for a in model.carrier} | \
        {("s", "c1"), ("c1", "s"), ("r", "c2"), ("c2", "r")}
    assert defined == expected
    assert sorted(model.mask_worlds(model.atom_mask("p"))) == ["c1.s", "c2"]
    assert validate_model(model, "erl") == []
    assert star_compat_violation(model) is not None
    assert verify_extraction(model, formulas, index, "erl") is None


def test_extraction_minimal_branch():
    sig = Signature.make(["a"], ["e", "r"])
    closure = Closure.close([ResEq(C1, C1)], ["a"])
    formulas = {SignedFormula("F", Atom("p"), C1)}
    assert is_hintikka(formulas, closure, sig) is None
    model, world, _ = extract_model(formulas, closure, sig, designated=C1)
    assert set(model.carrier) == {"e", "r", "c1"}
    assert model.atom_mask("p") == 0
    assert world == "c1"
    assert validate_model(model, "erl") == []
    # the unit is neutral for the resource kept only through the signature
    assert model.compose("e", "r") == "r"


def test_rho_prefers_resource_images():
    sig = sig_rs()
    closure = Closure.close([ResEq(C1, LR)], ["a"])
    index = build_index(closure, sig)
    assert index.world_of(C1) == "r"
    assert index.world_of(()) == "e"
    closure = Closure.close([ResEq(LR, LS)], ["a"])
    index = build_index(closure, sig)
    assert index.world_of(LS) == "r"  # least resource name wins
    assert index.warnings


def test_unit_class_keeps_the_unit_name():
    # s ~ e puts s in the unit class: its image is the unit's in normal
    # form, and the class is still named by the unit, with a warning
    sig = Signature.make(["a"], ["r", "s", "u"], unit="u")
    closure = Closure.close([ResEq(LS, ())], ["a"])
    assert closure.units == {"s"}
    index = build_index(closure, sig)
    assert index.world_of(()) == index.world_of(LS) == "u"
    assert index.warnings


def test_extract_requires_hintikka():
    sig = sig_rs()
    closure = Closure.close([ResEq(C1, C1)], ["a"])
    formulas = {SignedFormula("T", Atom("p"), C1),
                SignedFormula("F", Atom("p"), C1)}
    with pytest.raises(NotHintikka):
        extract_model(formulas, closure, sig, designated=C1)


def test_verify_extraction_catches_tampering():
    sig = sig_rs()
    formulas, closure = paper_branch(sig)
    model, _, index = extract_model(formulas, closure, sig, designated=C1)
    model.valuation["p"] = 0  # erase the valuation
    failure = verify_extraction(model, formulas, index, "erl")
    assert failure is not None and failure["kind"] == "forcing-failure"


@pytest.mark.parametrize("logic", ["erl", "erl-star"])
@pytest.mark.parametrize("text", ["[C a; r.s] p -> [C a; t] p",
                                  "[C a; t] p -> [C a; r.s] p"])
def test_invalid_extraction_is_never_a_refutation(text, logic):
    # the root branch holds the signature's r.s ~ t, so both directions
    # close; neither has a countermodel
    sig = Signature.make(["a"], ["e", "r", "s", "t"], "e", [("r", "s", "t")])
    phi = parse_formula(text, sig)
    out = prove(phi, sig, RunConfig(logic=logic))
    assert out.proved and out.applications == 3
    assert find_countermodel(phi, sig, 4, logic) is None


def test_extraction_breaking_the_signature_is_invalid():
    # a closure that makes r.s ~ t where the signature leaves r.s undefined
    # induces a model with a product the signature lacks: t lies in the
    # signature but r.s is undeclared
    sig = Signature.make(["a"], ["e", "r", "s", "t"])
    closure = Closure.close([ResEq(C1, C1), ResEq(lmul(LR, LS), label("t"))],
                            ["a"])
    formulas = {SignedFormula("F", Atom("p"), C1)}
    model, _, index = extract_model(formulas, closure, sig, designated=C1)
    failure = verify_extraction(model, formulas, index, "erl")
    assert failure is not None and failure["kind"] == "invalid-model"
    assert failure["violations"] == [
        "Extension('r', 's'): t lies in the signature but r.s is undeclared"]


def test_extracted_countermodels_load_back_from_json():
    # each refutation's countermodel, read off the closure, is the model its
    # JSON loads back to: the equivalence pairs close to the same classes
    cases = [(parse_formula(text, sig), sig, logic)
             for text, sig, logic in _regression_set()]
    # the first 300 formulas of the benchmark's seed-7 prove corpus
    sig = Signature.make(["a", "b"], ["e", "r", "s"])
    rng = random.Random(7)
    cases += [(random_formula(rng, sig, 3), sig, ("erl", "erl-star")[i % 2])
              for i in range(300)]
    refuted = 0
    for phi, sig, logic in cases:
        out = prove(phi, sig, RunConfig(logic=logic))
        if out.refuted:
            refuted += 1
            model, world = load_model(model_to_json(out.countermodel, out.world))
            assert (model.key(), world) == (out.countermodel.key(), out.world)
    assert refuted > 200
