import json
import random

import pytest

from erl import (And, Atom, Budget, Not, RunConfig, Signature, Star,
                 parse_formula, prove, find_countermodel, satisfies,
                 validate_model)
from erl.labels import AgentEq, ResEq, label, lmul
from erl.tableaux import Branch, SignedFormula, Tableau


def cfg(logic="erl", **kw):
    budget = Budget(**kw) if kw else Budget()
    return RunConfig(logic=logic, budget=budget)


def queued(b):
    """The instances waiting on branch ``b``, class by class."""
    return [ri for q in b.queues for ri in q]


def step(t, index=0):
    """Pop the next instance of branch ``index`` and apply it, as ``prove``
    does; returns the instance and the children's ids."""
    ri = t.branches[index].pop()
    return ri, t._apply(index, ri)


def test_init_tableau(sig_a):
    t = Tableau(Atom("p"), sig_a)
    [b] = t.branches
    assert SignedFormula("F", Atom("p"), label("c1")) in b.formulas
    assert b.closure.has_res(label("c1"), label("c1"))
    assert b.closed is None


def test_init_f_top_closes_by_expansion(sig_a):
    from erl.syntax import Top
    t = Tableau(Top(), sig_a)
    witness = t.branches[0].closed
    assert witness is not None and witness[0] == "F_top"


def test_f_unit_closes_via_constraint(sig_a):
    from erl.syntax import Unit
    t = Tableau(Unit(), sig_a)
    b = t.branches[0]
    assert b.closed is None
    b.add_constraints([ResEq(label("c1"), ())])
    witness = b.closed
    assert witness is not None and witness[0] == "F_I"


def test_applicable_rules_t_star(sig_a):
    t = Tableau(Not(Star(Atom("p"), Atom("q"))), sig_a)
    [ri] = queued(t.branches[0])
    assert step(t)[0] == ri             # F_not
    [ri] = queued(t.branches[0])
    assert ri.rule == "T_star"
    assert step(t)[0] == ri
    b = t.branches[0]
    assert SignedFormula("T", Atom("p"), label("c2")) in b.formulas
    assert SignedFormula("T", Atom("q"), label("c3")) in b.formulas
    assert b.closure.has_res(label("c1"), label("c2", "c3"))


def test_applicable_rules_condition_instance(sig_a):
    phi = parse_formula("[C a; s] p", sig_a)
    t = Tableau(Not(phi), sig_a)
    step(t)                             # F_not gives T [C a; s] p : c1
    assert queued(t.branches[0]) == []  # no partner in the closure yet
    b = t.branches[0]
    c1s = lmul(label("c1"), label("s"))
    b.add_constraints([AgentEq("a", c1s, label("c2"))])
    rules = {(ri.rule, ri.inst) for ri in queued(b)}
    assert ("T_C", (label("c2"),)) in rules
    ri, _ = step(t)
    assert ri.inst == (label("c2"),)
    assert SignedFormula("T", Atom("p"), label("c2")) in t.branches[0].formulas


def test_branching_rule_shapes(sig_a):
    phi = Not(And(Atom("p"), Atom("q")))
    t = Tableau(Not(phi), sig_a)
    step(t)                             # F_not
    step(t)                             # T_not -> F (p & q) : c1
    [ri] = queued(t.branches[0])
    assert ri.rule == "F_and"
    got, children = step(t)
    assert got == ri
    assert len(children) == 2 and len(t.branches) == 2
    assert SignedFormula("F", Atom("p"), label("c1")) in t.branches[0].formulas
    assert SignedFormula("F", Atom("q"), label("c1")) in t.branches[1].formulas


def test_apply_f_imp_and_t_i(sig_a):
    phi = parse_formula("I -> p", sig_a)
    t = Tableau(phi, sig_a)
    [ri] = queued(t.branches[0])
    assert ri.rule == "F_imp"
    assert step(t)[0] == ri
    b = t.branches[0]
    assert SignedFormula("T", parse_formula("I", sig_a), label("c1")) in b.formulas
    [ri] = queued(b)
    assert ri.rule == "T_I"
    assert step(t)[0] == ri
    assert t.branches[0].closure.has_res(label("c1"), ())


def test_apply_f_dd(sig_a):
    phi = parse_formula("[D a; s] p", sig_a)
    t = Tableau(phi, sig_a)
    [ri] = queued(t.branches[0])
    assert ri.rule == "F_Dd"
    assert step(t)[0] == ri
    b = t.branches[0]
    c2s = lmul(label("c2"), label("s"))
    assert SignedFormula("F", Atom("p"), c2s) in b.formulas
    assert b.closure.has_agent("a", label("c1"), c2s)


def test_monotone_growth(sig_a):
    phi = parse_formula("(p | q) & !p -> q", sig_a)
    t = Tableau(phi, sig_a)
    while True:
        open_idx = [i for i, b in enumerate(t.branches) if b.closed is None
                    and b.has_work()]
        if not open_idx:
            break
        i = open_idx[0]
        before_f = set(t.branches[i].formulas)
        before_c = list(t.branches[i].closure.base)
        ri = t.branches[i].pop()
        ids = t._apply(i, ri)
        for bid in ids:
            child = next(b for b in t.branches if b.id == bid)
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
    from erl.syntax import Bot, Unit
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
                RunConfig(budget=Budget(closure_max_card=1, max_steps=500)))
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
    assert {1, 2, config.budget.max_constants} <= depths


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
