import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import erl
from erl import (And, Atom, Not, RunConfig, Signature, Star,
                 parse_formula, prove, find_countermodel, satisfies,
                 validate_model)
from erl.labels import AgentEq, Closure, ResEq, label, lmul
from erl.syntax import Unit
from erl.tableaux import Branch, SignedFormula, Tableau, root_closure

from conftest import random_formula


def cfg(logic="erl", **kw):
    return RunConfig(logic=logic, **kw)


def queued(b):
    """The instances waiting on branch ``b``, class by class."""
    return [ri for q in b.queues for ri in q]


def step(t):
    """Pop the next instance of the top branch and apply it, as ``prove``
    does; returns the instance and the children's ids."""
    ri = t.branches[-1].pop()
    return ri, t._apply(ri)


def test_init_tableau(sig_a):
    t = Tableau(Atom("p"), sig_a)
    [b] = t.branches
    assert SignedFormula("F", Atom("p"), label("c1")) in b.formulas
    assert b.closure.has_res(label("c1"), label("c1"))
    assert b.closed is None


def test_init_f_top_closes_by_expansion(sig_a):
    # F top : c1 closes the root as it is added, so the stack starts empty
    from erl.syntax import Top
    assert Tableau(Top(), sig_a).branches == []
    b = Branch(0, Closure(["a"]))
    b.add_constraints([ResEq(label("c1"), label("c1"))])
    b.add_signed(SignedFormula("F", Top(), label("c1")))
    assert b.closed is not None and b.closed[0] == "F_top"


def test_f_unit_closes_via_constraint(sig_a):
    t = Tableau(Unit(), sig_a)
    b = t.branches[-1]
    assert b.closed is None
    b.add_constraints([ResEq(label("c1"), ())])
    witness = b.closed
    assert witness is not None and witness[0] == "F_I"


def test_applicable_rules_t_star(sig_a):
    t = Tableau(Not(Star(Atom("p"), Atom("q"))), sig_a)
    [ri] = queued(t.branches[-1])
    assert step(t)[0] == ri             # F_not
    [ri] = queued(t.branches[-1])
    assert ri.rule == "T_star"
    assert step(t)[0] == ri
    b = t.branches[-1]
    assert SignedFormula("T", Atom("p"), label("c2")) in b.formulas
    assert SignedFormula("T", Atom("q"), label("c3")) in b.formulas
    assert b.closure.has_res(label("c1"), label("c2", "c3"))


def test_applicable_rules_condition_instance(sig_a):
    phi = parse_formula("[C a; s] p", sig_a)
    t = Tableau(Not(phi), sig_a)
    step(t)                             # F_not gives T [C a; s] p : c1
    assert queued(t.branches[-1]) == []  # no partner in the closure yet
    b = t.branches[-1]
    c1s = lmul(label("c1"), label("s"))
    b.add_constraints([AgentEq("a", c1s, label("c2"))])
    rules = {(ri.rule, ri.inst) for ri in queued(b)}
    assert ("T_C", (label("c2"),)) in rules
    ri, _ = step(t)
    assert ri.inst == (label("c2"),)
    assert SignedFormula("T", Atom("p"), label("c2")) in t.branches[-1].formulas


def test_branching_rule_shapes(sig_a):
    t = Tableau(parse_formula("(I | q) -> p", sig_a), sig_a)
    step(t)                             # F_imp
    [ri] = queued(t.branches[-1])
    assert ri.rule == "T_or"
    got, children = step(t)
    assert got == ri
    # the leftmost child is on top of the stack
    assert len(children) == 2 and [b.id for b in t.branches] == children[::-1]
    left, right = t.branches[::-1]
    assert SignedFormula("T", parse_formula("I", sig_a), label("c1")) in left.formulas
    assert SignedFormula("T", Atom("q"), label("c1")) in right.formulas
    # the children share one closure until one of them adds a constraint:
    # the left child's T_I adds c1 ~ e while the right child is pending,
    # so the left child writes to a copy
    assert left.closure is right.closure
    facts = right.closure.facts()
    ri, _ = step(t)
    assert ri.rule == "T_I" and t.branches[-1] is left
    assert left.closure is not right.closure
    assert left.closure.has_res(label("c1"), ())
    assert right.closure.facts() == facts


def test_only_holder_writes_in_place(sig_a, monkeypatch):
    # T_imp's right child T q : c1 closes at once against F q : c1, so the
    # left child alone holds the closure when T_star adds c1 ~ c2.c3: it
    # copies the shared root once, then writes to its copy in place (T_I)
    copies = []
    clone = Closure.clone
    monkeypatch.setattr(Closure, "clone", lambda cl: copies.append(cl) or clone(cl))
    out = prove(parse_formula("(p -> q) -> (p * I -> q)", sig_a), sig_a, cfg())
    assert out.proved
    rules = [e["rule"] for e in out.trace]
    assert rules[:4] == ["F_imp", "F_imp", "T_imp", "T_star"] and "T_I" in rules
    assert copies == [root_closure(sig_a, cfg())]


def test_equal_signatures_share_one_root():
    # a signature hashes by value, as it compares; the root record is keyed
    # on it, so a root is built once per signature, logic and budget
    sig = Signature.make(["a"], ["e", "r", "s"], "e", [("r", "r", "s")])
    again = Signature.make(["a"], ["r", "s", "e"], "e", [("r", "r", "s")])
    assert sig is not again and sig == again and hash(sig) == hash(again)
    assert root_closure(sig, cfg()) is root_closure(again, cfg())
    assert root_closure(sig, cfg()) is not root_closure(sig, cfg("erl-star"))
    assert root_closure(sig, cfg()) is not root_closure(sig, cfg(closure_budget=5))
    for other in (Signature.make(["a"], ["e", "r", "s"], "e", [("r", "r", "r")]),
                  Signature.make(["a"], ["e", "r", "s"], "e"),
                  Signature.make(["a"], ["e", "r", "s"], "s", [("r", "r", "e")])):
        assert other != sig and root_closure(other, cfg()) is not root_closure(sig, cfg())
    assert len({sig, again, Signature.make(["a"], ["e", "r", "s"], "s")}) == 2


def test_a_direct_write_leaves_the_shared_root(sig_a):
    # add_constraints is the one writer of a branch closure: on the shared
    # root it writes to a copy, so no later proof sees the constraint
    root = root_closure(sig_a, cfg())
    facts, base = root.facts(), list(root.base)
    b = Tableau(Unit(), sig_a).branches[-1]
    assert b.closure is root
    b.add_constraints([ResEq(label("c1"), ())])
    assert b.closure is not root and b.closure.has_res(label("c1"), ())
    assert (root.facts(), root.base) == (facts, base)
    with pytest.raises(AssertionError):
        root.add(ResEq(label("c1"), ()))
    assert prove(Unit(), sig_a, cfg()).refuted


def test_closed_child_leaves_the_stack(sig_a):
    t = Tableau(parse_formula("(p | q) -> p", sig_a), sig_a)
    step(t)                             # F_imp
    ri, (left, right) = step(t)
    assert ri.rule == "T_or"
    assert [b.id for b in t.branches] == [right]
    assert [rec["branch"] for rec in t.closed_log] == [left]


def test_apply_f_imp_and_t_i(sig_a):
    phi = parse_formula("I -> p", sig_a)
    t = Tableau(phi, sig_a)
    [ri] = queued(t.branches[-1])
    assert ri.rule == "F_imp"
    assert step(t)[0] == ri
    b = t.branches[-1]
    assert SignedFormula("T", parse_formula("I", sig_a), label("c1")) in b.formulas
    [ri] = queued(b)
    assert ri.rule == "T_I"
    assert step(t)[0] == ri
    assert t.branches[-1].closure.has_res(label("c1"), ())


def test_apply_f_dd(sig_a):
    phi = parse_formula("[D a; s] p", sig_a)
    t = Tableau(phi, sig_a)
    [ri] = queued(t.branches[-1])
    assert ri.rule == "F_Dd"
    assert step(t)[0] == ri
    b = t.branches[-1]
    c2s = lmul(label("c2"), label("s"))
    assert SignedFormula("F", Atom("p"), c2s) in b.formulas
    assert b.closure.has_agent("a", label("c1"), c2s)


def test_monotone_growth(sig_a):
    phi = parse_formula("(p | q) & !p -> q", sig_a)
    t = Tableau(phi, sig_a)
    while t.branches:
        b = t.branches[-1]
        if not b.has_work():
            t.branches.pop()
            continue
        before_f = set(b.formulas)
        before_c = list(b.closure.base)
        ids = t._apply(b.pop())
        # each child is open, on the stack, or closed and logged
        children = [c for c in t.branches if c.id in ids]
        closed = [rec["branch"] for rec in t.closed_log if rec["branch"] in ids]
        assert sorted([c.id for c in children] + closed) == sorted(ids)
        for child in children:
            assert before_f <= child.formulas
            assert before_c == child.closure.base[:len(before_c)]


def test_fresh_constant_progression(sig_a):
    t = Tableau(Not(Star(Atom("p"), Atom("q"))), sig_a)
    assert t.fresh_constant() == "c2"
    t2 = Tableau(Not(Star(Atom("p"), Atom("q"))), sig_a)
    step(t2)                            # F_not
    assert step(t2)[0].rule == "T_star"  # takes c2, c3
    assert t2.fresh_constant() == "c4"


def test_prove_trivia(sig_a):
    out = prove(parse_formula("p -> p", sig_a), sig_a, cfg())
    assert out.proved and out.applications <= 2
    out = prove(parse_formula("top", sig_a), sig_a, cfg())
    assert out.proved
    out = prove(parse_formula("p * q -> q * p", sig_a), sig_a, cfg())
    assert out.proved


def test_prove_bot_refuted(sig_a):
    from erl.syntax import Bot
    out = prove(Bot(), sig_a, cfg())
    assert out.refuted
    out = prove(Unit(), sig_a, cfg())
    assert out.refuted and out.world != "e"


def test_prove_wand_modus_ponens(sig_bbi):
    out = prove(parse_formula("(p -* q) * p -> q", sig_bbi), sig_bbi, cfg())
    assert out.proved


def test_star_law_needs_compatibility(sig_st):
    # valid only when the agent relations are compatible with composition
    phi = parse_formula("[C a; s] p -> [D a; t] [C a; s] p", sig_st)
    assert prove(phi, sig_st, cfg("erl-star")).proved
    out = prove(phi, sig_st, cfg("erl"))
    assert out.refuted
    assert find_countermodel(phi, sig_st, 4, "erl") is not None
    assert find_countermodel(phi, sig_st, 4, "erl-star") is None


def test_closure_budget_degrades_to_unknown(sig_bbi):
    phi = parse_formula("(p * q) * q -> p * (q * q)", sig_bbi)
    out = prove(phi, sig_bbi,
                RunConfig(closure_budget=1, max_steps=500))
    assert out.verdict == "unknown"
    assert out.diagnostics.get("closure_budget_hit") or \
        out.diagnostics.get("steps_exhausted")


@pytest.mark.parametrize("budget, flag", [({"max_constants": 0}, "starved"),
                                          ({"max_steps": 1}, "steps_exhausted")],
                         ids=["starved", "steps_exhausted"])
def test_prove_unknown_on_starved_budget(sig_a, budget, flag):
    out = prove(parse_formula("p * q -> q * p", sig_a), sig_a, cfg(**budget))
    assert out.verdict == "unknown"
    assert out.diagnostics.get(flag)
    if flag == "steps_exhausted":
        assert out.applications == 1
        assert out.diagnostics["closure_budget_hit"] is False


def test_prove_refuted_verifies_model(sig_a):
    phi = parse_formula("[C a; s] p -> [C a; s] [C a; r] p", sig_a)
    out = prove(phi, sig_a, cfg("erl"))
    assert out.refuted
    assert validate_model(out.countermodel, "erl") == []
    assert not satisfies(out.countermodel, out.world, phi)
    assert out.branch is not None and out.branch["closed"] is None


def test_confluence_across_seeds(sig_a, sig_bbi, monkeypatch):
    # the verdict does not depend on the order in which a batch of rule
    # instances is queued: seed 0 keeps the prover's order, seeds 1 and 2
    # shuffle every batch
    enqueue = Branch._enqueue_batch
    cases = [
        (sig_bbi, "p * q -> q * p", "erl", "proved"),
        (sig_bbi, "p -> p * p", "erl", "refuted"),
        (sig_a, "[D a; s] p -> [D a; r] [D a; s] p", "erl-star", "proved"),
        (sig_a, "[C a; s] p -> [C a; s] [C a; r] p", "erl", "refuted"),
        (sig_a, "[C a; e] p -> p", "erl", "proved"),
    ]
    for sig, text, logic, want in cases:
        phi = parse_formula(text, sig)
        for seed in (0, 1, 2):
            if seed:
                rng = random.Random(seed)
                monkeypatch.setattr(
                    Branch, "_enqueue_batch", lambda self, batch, rng=rng:
                    enqueue(self, rng.sample(batch, len(batch))))
            out = prove(phi, sig, RunConfig(logic=logic))
            assert out.verdict == want, (text, seed, out.verdict)
        monkeypatch.setattr(Branch, "_enqueue_batch", enqueue)


def test_refuted_under_star_extracts_compatible_model(sig_a):
    phi = parse_formula("[C a; s] p -> [C a; s] [C a; r] p", sig_a)
    out = prove(phi, sig_a, cfg("erl-star"))
    assert out.refuted
    assert validate_model(out.countermodel, "erl-star") == []
    assert not satisfies(out.countermodel, out.world, phi)


def test_proved_shadowed_by_oracle(sig_bbi):
    phi = parse_formula("p -> p * I", sig_bbi)
    out = prove(phi, sig_bbi, cfg())
    assert out.proved
    assert find_countermodel(phi, sig_bbi, 3, "erl") is None


def test_trace_json_serializable(sig_a):
    phi = parse_formula("[D a; s] p -> [D a; r] [D a; s] p", sig_a)
    out = prove(phi, sig_a, cfg("erl-star"))
    blob = json.dumps(out.to_json(), sort_keys=True)
    assert '"t_a"' in blob


def applied_twice(trace):
    """The first (rule, principal, instantiation) that the trace applies
    twice along one branch, each child inheriting its parent's history, or
    None."""
    history = {0: frozenset()}
    for entry in trace:
        key = (entry["rule"], entry["principal"], tuple(entry["instantiation"]))
        seen = history[entry["branch"]]
        if key in seen:
            return key
        for child in entry["children"]:
            history[child] = seen | {key}
    return None


@pytest.mark.parametrize("budget", [{}, {"max_constants": 3, "max_steps": 1000}])
def test_in_place_deepening_is_exact(budget):
    # one run capped at max_constants gives, byte for byte, what a new
    # tableau per depth gives; under 3 constants some branches starve at
    # the last depth, and one run there exhausts its steps.  No branch
    # applies a rule instance twice.
    from oracles import restart_prove
    from test_acceptance import _regression_set
    from test_soundness import corpus
    cases = [(parse_formula(text, sig), sig, logic)
             for text, sig, logic in _regression_set()]
    sig, formulas = corpus()
    cases += [(phi, sig, logic) for phi, logic in formulas[:100]]
    depths = set()
    for phi, sig, logic in cases:
        config = cfg(logic, **budget)
        out = prove(phi, sig, config)
        assert len(out.trace) == out.applications
        assert applied_twice(out.trace) is None, (phi, logic)
        assert (json.dumps(out.to_json(), sort_keys=True)
                == json.dumps(restart_prove(phi, sig, config).to_json(),
                              sort_keys=True)), (phi, logic)
        depths.add(out.depth)
    assert {1, 2, config.max_constants} <= depths


def test_pruned_branches_end_unknown_early():
    # F_star used to split budget-hit branches 4,096 times; once one open
    # branch has saturated no proof is possible, and those are pruned
    sig = Signature.make(["a"], ["e", "r", "s"])
    phi = parse_formula("[D a; r.r] (bot * bot) * top", sig)
    out = prove(phi, sig, cfg("erl-star"))
    assert out.verdict == "unknown" and out.applications < 100
    assert "pruned" in out.diagnostics["branch_states"]
    assert out.diagnostics["closure_budget_hit"]


@pytest.mark.parametrize("text,logic", [
    ("!I", "erl"), ("!I", "erl-star"), ("[D a; e] !I", "erl")])
def test_unit_class_decides(text, logic):
    # T I : c adds c ~ e; in normal form c_r has nothing left to climb
    sig = Signature.make(["a"], ["e", "r", "s"])
    phi = parse_formula(text, sig)
    out = prove(phi, sig, cfg(logic))
    assert out.verdict != "unknown"
    model = find_countermodel(phi, sig, 4, logic)
    assert out.refuted == (model is not None)
    if out.refuted:
        assert validate_model(out.countermodel, logic) == []
        assert not satisfies(out.countermodel, out.world, phi)


@pytest.mark.parametrize("logic", ["erl", "erl-star"])
def test_failed_extraction_ends_unknown(logic):
    # the branch is Hintikka, but the extracted model keeps the signature's
    # resources r and s as worlds, and they falsify T (I -> I) -* I at e;
    # with no countermodel at 4 worlds either, unknown is the right verdict
    sig = Signature.make(["a", "b"], ["e", "r", "s"])
    phi = parse_formula("((I -> I) -* I) -* !!p", sig)
    out = prove(phi, sig, cfg(logic))
    assert out.verdict == "unknown" and out.applications == 9
    (state,) = out.diagnostics["branch_states"]
    assert state.startswith("extraction-failed: ")
    assert find_countermodel(phi, sig, 4, logic) is None


def test_json_does_not_depend_on_the_hash_seed():
    # one closed branch of this proof meets a clash with two partners; the
    # labels of each formula are tried in insertion order, not in
    # string-hash order, so the witness is the same in every process
    code = ("import json; from erl import RunConfig, Signature, parse_formula, prove; "
            "sig = Signature.make(['a', 'b'], ['e', 'r', 's']); "
            "phi = parse_formula('(<C a; r.r> (top -* I) -> <C b; r.r> p | (p -* q))"
            " | bot * bot', sig); "
            "print(json.dumps(prove(phi, sig, RunConfig()).to_json(), sort_keys=True))")
    src = str(Path(erl.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
                           ).stdout
            for seed in ("0", "1")]
    assert json.loads(outs[0])["verdict"] == "proved"
    assert outs[0] == outs[1]


def history_listing(reverse: bool = False) -> list[str]:
    """The JSON of ``prove`` on 48 seeded depth-3 formulas, 24 over
    (a, b; e, r, s) and 24 over (a; e, r, s) with r.r = s, the logics
    alternating; proved in reverse order when ``reverse``, listed in order."""
    cases = []
    for seed, sig in ((3, Signature.make(["a", "b"], ["e", "r", "s"])),
                      (5, Signature.make(["a"], ["e", "r", "s"], "e", [("r", "r", "s")]))):
        rng = random.Random(seed)
        cases += [(random_formula(rng, sig, 3), sig, ("erl", "erl-star")[i % 2])
                  for i in range(24)]
    order = range(len(cases))[::-1] if reverse else range(len(cases))
    out = {i: json.dumps(prove(cases[i][0], cases[i][1], cfg(cases[i][2])).to_json(),
                         sort_keys=True) for i in order}
    return [out[i] for i in range(len(cases))]


def test_json_does_not_depend_on_what_the_process_proved_before():
    # proofs share their signature's root closure and the frame extracted
    # from it; nothing an earlier proof did may show in a later one's JSON
    here = Path(__file__).resolve().parent
    src = str(Path(erl.__file__).resolve().parents[1])
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import test_tableaux; "
            "print(json.dumps(test_tableaux.history_listing()))")
    fresh = subprocess.run([sys.executable, "-c", code, src, str(here)], check=True,
                           capture_output=True, text=True, timeout=120,
                           env=dict(os.environ, PYTHONHASHSEED="0")).stdout
    listing = history_listing()
    assert history_listing(reverse=True) == listing == json.loads(fresh)
    verdicts = {json.loads(line)["verdict"] for line in listing}
    assert {"proved", "refuted"} <= verdicts
