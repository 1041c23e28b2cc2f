import random

import pytest
from hypothesis import given, settings, strategies as st

from erl import (And, Atom, Implies, Modal, Not, Signature, Star, Top, Unit,
                 C, D, CDUAL, DDUAL, expand_duals, format_formula,
                 parse_formula, term_of, validate_signature)
from erl.errors import ParseError, SignatureError, UnknownAgentError, \
    UnknownResourceError
from erl.syntax import load_signature, signature_to_json

from conftest import random_formula
from oracles import check_signature_axioms


@pytest.mark.parametrize("text,position", [
    # inside a modality's term: the offending token itself
    ("[C a; ] p", 6), ("[C a; e.] p", 8), ("[C a; r.(] p", 8),
    ("<D a; r.s.> q", 10), ("[C a; ;] p", 6),
    # elsewhere
    ("p q", 2), ("((p)", 4), ("[X a; e] p", 1), ("[C a e] p", 5)])
def test_parse_error_position(text, position):
    sig = Signature.make(["a"], ["e", "r", "s"])
    with pytest.raises(ParseError) as err:
        parse_formula(text, sig)
    assert err.value.position == position


def test_parse_identity(sig_a):
    assert parse_formula("p -> p", sig_a) == Implies(Atom("p"), Atom("p"))


def test_parse_gate_policy_body():
    sig = Signature.make(["a"], ["e", "b", "t"])
    phi = parse_formula("[C a; b.t] J", sig)
    assert phi == Modal(C, "a", term_of(["b", "t"], sig), Atom("J"))


def test_parse_two_keys():
    sig = Signature.make(["a", "b"], ["e", "k1", "k2"])
    phi = parse_formula("<D a; k1> top * <D b; k2> top", sig)
    assert phi == Star(Modal(D, "a", term_of(["k1"], sig), Top()),
                       Modal(D, "b", term_of(["k2"], sig), Top()))


def test_modal_term_normalization(sig_a):
    assert parse_formula("[C a; r.s] p", sig_a) == \
        parse_formula("[C a; s.r.e] p", sig_a)


def test_precedence(sig_a):
    assert parse_formula("p * q & r2 | s2 -> t2", sig_a) == \
        parse_formula("(((p * q) & r2) | s2) -> t2", sig_a)
    assert parse_formula("p -> q -* r2", sig_a) == \
        parse_formula("p -> (q -* r2)", sig_a)
    assert parse_formula("! [C a; s] p * q", sig_a) == \
        Star(Not(parse_formula("[C a; s] p", sig_a)), Atom("q"))


def test_parse_errors(sig_a):
    with pytest.raises(ParseError):
        parse_formula("p ->", sig_a)
    with pytest.raises(ParseError):
        parse_formula("p @ q", sig_a)
    with pytest.raises(UnknownAgentError):
        parse_formula("[C nobody; s] p", sig_a)
    with pytest.raises(UnknownResourceError):
        parse_formula("[C a; zz] p", sig_a)


def test_roundtrip_corpus(sig_a):
    rng = random.Random(7)
    for _ in range(300):
        phi = random_formula(rng, sig_a, depth=4)
        assert parse_formula(format_formula(phi), sig_a) == phi


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_roundtrip_property(seed):
    sig = Signature.make(["a"], ["e", "r", "s"])
    phi = random_formula(random.Random(seed), sig, depth=5)
    assert parse_formula(format_formula(phi), sig) == phi


def test_expand_duals_definitions(sig_a):
    s = term_of(["s"], sig_a)
    t = term_of(["s"], sig_a)
    p = Atom("p")
    assert expand_duals(Modal(CDUAL, "a", s, p)) == \
        Not(Modal(C, "a", s, Not(p)))
    assert expand_duals(p) == p
    nested = Modal(DDUAL, "a", s, Modal(CDUAL, "a", t, p))
    assert expand_duals(nested) == \
        Not(Modal(D, "a", s, Not(Not(Modal(C, "a", t, Not(p))))))


def test_expand_duals_has_no_duals(sig_a):
    from erl.syntax import subformulas, BASE_OF
    rng = random.Random(21)
    for _ in range(100):
        phi = random_formula(rng, sig_a, depth=4)
        for sub in subformulas(expand_duals(phi)):
            assert not (isinstance(sub, Modal) and sub.op in BASE_OF)


# -- signatures ---------------------------------------------------------------


def test_validate_trivial_signature():
    assert validate_signature(Signature.make([], ["e"])) == []


def test_validate_commutativity_breach():
    sig = Signature(frozenset(), frozenset({"e", "r", "s", "t"}), "e",
                    {("r", "s"): "t", ("s", "r"): "r"})
    axioms = [v.axiom for v in validate_signature(sig)]
    assert "Commutativity" in axioms


def test_validate_four_element_table():
    # independently checked by exhaustive scan over all triples
    table = {("r", "s"): "t"}
    sig = Signature.make([], ["e", "r", "s", "t"], composition=[("r", "s", "t")])
    assert check_signature_axioms(sorted(sig.resources), "e", table)
    assert validate_signature(sig) == []


def test_validate_associativity_violation():
    # r.(s.t) = r.u defined while r.s is undefined
    sig = Signature.make([], ["e", "r", "s", "t", "u"],
                         composition=[("s", "t", "u"), ("r", "u", "t")])
    axioms = [v.axiom for v in validate_signature(sig)]
    assert "Associativity" in axioms
    assert not check_signature_axioms(sorted(sig.resources), "e",
                                      {("s", "t"): "u", ("r", "u"): "t"})
    # the witness names resources, not positions in the table
    sig = Signature.make([], ["e", "r", "s", "t"], "e",
                         [("r", "s", "t"), ("t", "r", "s")])
    assert [(v.axiom, v.witness) for v in validate_signature(sig)] == \
        [("Associativity", ("r", "r", "s"))]
    # a square with an undefined cross product is a legitimate partial monoid
    square = Signature.make([], ["e", "r", "s"], composition=[("r", "r", "s")])
    assert validate_signature(square) == []


def test_make_rejects_inconsistent_rows():
    res = ["e", "r", "s", "t"]
    with pytest.raises(SignatureError):
        Signature.make([], res, "e", [("r", "s", "t"), ("s", "r", "e")])
    with pytest.raises(SignatureError):
        Signature.make([], res, "e", [("e", "r", "s")])  # e.r must be r
    # a repeated or commuted row, and a unit row that holds, are accepted
    sig = Signature.make([], res, "e", [("r", "s", "t"), ("s", "r", "t"),
                                        ("r", "e", "r")])
    assert sig.composition == {("r", "s"): "t"}


def test_reserved_resource_names():
    sig = Signature.make([], ["e", "c1"])
    assert any(v.axiom == "ReservedName" for v in validate_signature(sig))


def test_signature_json_roundtrip(sig_st):
    sig2 = load_signature(signature_to_json(sig_st))
    assert sig2 == sig_st
    with pytest.raises(SignatureError):
        load_signature({"agents": ["a"], "resources": ["e", "a"]})
    with pytest.raises(SignatureError, match="row mentions undeclared names"):
        load_signature({"resources": ["e", "r"], "composition": [["r", "x", "r"]]})
    with pytest.raises(SignatureError, match="agent names must be identifiers"):
        load_signature({"agents": ["1a"], "resources": ["e"]})
