import ast
import random

import pytest
from hypothesis import given, settings, strategies as st

from erl.labels import (AgentEq, Closure, EPSILON, ResEq, fact_str, label,
                        label_str, lmul, lsub, splits_of, sublabels)

import oracles
from oracles import (agent_facts, alphabet, corollary_check, derived_rule_check,
                     naive_closure, naive_saturation, replay, replay_step)

C1, C2, C3, C4 = label("c1"), label("c2"), label("c3"), label("c4")
LS, LR = label("s"), label("r")


def close(cs, agents=("u",), **kw):
    return Closure.close(cs, agents, **kw)


def test_label_primitives():
    assert lmul(C1, LS) == ("c1", "s")
    assert lmul(C2, C1) == ("c1", "c2")
    assert lsub(("c1", "s"), LS) == C1
    assert lsub(C1, LS) is None
    assert lsub(("c1", "c1", "s"), ("c1", "s")) == C1
    assert set(sublabels(("c1", "s"))) == {(), C1, LS, ("c1", "s")}
    assert label_str(EPSILON) == "e"
    assert label_str(lmul(C2, LR)) == "c2.r"


# names that sort before and after "c", and constants whose numeric order
# is not their string order
CONSTANTS = ["a", "b", "c", "ca", "s", "z", "c1", "c2", "c9", "c10", "c11"]
LABELS = st.lists(st.sampled_from(CONSTANTS), max_size=6).map(lambda cs: label(*cs))


@settings(max_examples=200, deadline=None)
@given(LABELS, LABELS, LABELS, st.data())
def test_oracle_label_arithmetic_agrees(x, y, z, data):
    # the oracles' own label arithmetic is the closure's, order included
    assert oracles.mul(x, y, z) == lmul(x, y, z)
    assert oracles.sub(x, y) == lsub(x, y)
    kept = data.draw(st.sets(st.integers(0, len(x) - 1)) if x else st.just(set()))
    part = tuple(x[i] for i in sorted(kept))
    assert oracles.sub(x, part) == lsub(x, part)
    assert list(oracles.splits(x)) == splits_of(x)
    assert oracles.sublabels(x) == sublabels(x)


def test_oracles_share_no_label_arithmetic():
    # oracles.py takes only the data types from erl.labels, so a fault in
    # the closure's arithmetic cannot pass its checks unseen
    tree = ast.parse(open(oracles.__file__).read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name != "erl.labels" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "erl.labels":
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "erl":
            assert all(a.name != "labels" for a in node.names)
    assert imported == {"Closure", "ResEq", "AgentEq"}


def test_replay_step_refuses_a_collapsed_label():
    # c1 ~ c2 and c1.c2 in the domain give c1.c1 ~ c1.c2 by c_r with k = c1;
    # a product that dropped the repeated c1 would conclude c1 ~ c1.c2
    cl = close([ResEq(C1, C2), ResEq(lmul(C2, C2), lmul(C2, C2))], agents=["a"])
    premises = (("r", C1, C2), ("r", lmul(C1, C2), lmul(C1, C2)))
    assert replay_step(cl, "c_r", premises, ("r", lmul(C1, C1), lmul(C1, C2)))
    assert not replay_step(cl, "c_r", premises, ("r", C1, lmul(C1, C2)))
    assert replay(cl) == []


def test_closure_reflexivity_and_eps():
    cl = close([ResEq(C1, C1)])
    assert cl.has_res(EPSILON, EPSILON)
    assert cl.has_agent("u", C1, C1)


def test_closure_decomposition():
    cl = close([ResEq(C1, lmul(C2, C3))])
    assert cl.has_res(C2, C2) and cl.has_res(C3, C3)
    # no rule introduces the label c1.c2 (cross-checked by the naive oracle)
    assert not cl.has_res(lmul(C1, C2), lmul(C1, C2))
    naive = naive_closure([ResEq(C1, lmul(C2, C3))], ["u"], max_card=4)
    assert ("r", lmul(C1, C2), lmul(C1, C2)) not in naive
    assert set(cl.facts()) == naive


def test_closure_budget_growth():
    cl = close([ResEq(C1, lmul(C1, LS))], max_card=3)
    assert cl.has_res(lmul(C1, LS, LS), lmul(C1, LS))
    assert cl.budget_hit


def test_closure_agent_queries():
    cl = close([AgentEq("u", lmul(C1, LS), C2), ResEq(C2, C4)])
    assert cl.has_agent("u", C4, lmul(C1, LS))
    cl = close([AgentEq("u", lmul(C1, LS), C2)])
    partners = cl.partners_agent("u", lmul(C1, LS))
    assert C2 in partners and lmul(C1, LS) in partners
    cl = close([AgentEq("u", C1, lmul(C2, LR))])
    assert cl.partners_agent("u", C1, suffix=LR) == [C2]
    cl = close([])
    assert cl.partners_agent("u", EPSILON) == [EPSILON]


def test_enumerate_splits():
    cl = close([ResEq(C1, lmul(C2, C3))])
    assert (C2, C3) in cl.splits(C1)
    cl = close([ResEq(C1, C1)])
    # derived by scanning the whole two-element domain
    dom = cl.domain()
    expected = sorted({(y, z) for w in dom for (y, z) in splits_of(w)
                       if cl.has_res(C1, lmul(y, z))})
    assert sorted(cl.splits(C1)) == expected == [(EPSILON, C1), (C1, EPSILON)]
    cl = close([])
    assert cl.splits(EPSILON) == [(EPSILON, EPSILON)]


def test_domain_and_alphabet():
    cl = close([ResEq(C1, lmul(C2, C3))])
    # sublabel scan of the saturated store
    facts_labels = set()
    for fact in cl.facts():
        sides = (fact[1], fact[2]) if fact[0] == "r" else (fact[2], fact[3])
        for side in sides:
            facts_labels.update(sublabels(side))
    assert set(cl.domain()) == facts_labels == \
        {EPSILON, C1, C2, C3, lmul(C2, C3)}
    assert alphabet(cl) == ["c1", "c2", "c3"]
    assert close([]).domain() == [EPSILON]


def test_alphabet_preserved_under_closure():
    cs = [ResEq(C1, lmul(C2, C3)), AgentEq("u", C1, lmul(C4, LS))]
    cl = close(cs)
    base_alphabet = set()
    for c in cs:
        for side in ((c.left, c.right)):
            base_alphabet.update(side)
    assert set(alphabet(cl)) == base_alphabet


def test_erl_star_rule():
    base = [AgentEq("u", C1, C2), ResEq(lmul(C2, C3), lmul(C2, C3))]
    cl = close(base, erl_star=True)
    assert cl.has_agent("u", lmul(C1, C3), lmul(C2, C3))
    assert not close(base, erl_star=False).has_agent(
        "u", lmul(C1, C3), lmul(C2, C3))


def test_compatibility_property_on_store():
    cl = close([AgentEq("u", C1, C2), ResEq(lmul(C2, C3), lmul(C2, C3))],
               erl_star=True)
    cap = cl.max_card
    for (u, x, y) in agent_facts(cl):
        for w in cl.domain():
            k = lsub(w, y)
            if k is not None and len(lmul(x, k)) <= cap:
                assert cl.has_agent(u, lmul(x, k), w)


def test_incremental_matches_batch():
    batch = close([ResEq(C1, lmul(C2, C3)), AgentEq("u", C2, C4)])
    inc = close([ResEq(C1, lmul(C2, C3))])
    inc.add(AgentEq("u", C2, C4))
    assert set(batch.facts()) == set(inc.facts())


def test_long_base_label_keeps_the_budget():
    # a base label longer than max_card enters the store, but the budget
    # stays: the c_r instances it brings due are over it and flag it
    long = lmul(C2, C3, C4, LR, LS)
    cl = close([ResEq(C1, C1)], max_card=4)
    assert not cl.budget_hit
    cl.add(ResEq(C2, long))
    assert cl.max_card == 4 and cl.budget_hit
    assert cl.has_res(C2, long) and cl.in_domain(long)
    assert not cl.in_domain(lmul(C2, C3, long))


def test_derivations_replay_and_serialize():
    cl = close([ResEq(C1, lmul(C2, C3)), AgentEq("u", C2, C4)])
    assert replay(cl) == []
    chain = cl.derivation_chain(("a", "u", C4, C2))
    assert chain[-1]["conclusion"] == "c4 ~[u] c2"
    for i, step in enumerate(chain):
        assert all(p < i for p in step["premises"])


def _random_constraints(rng, n_agents=1):
    consts = ["c1", "c2", "c3", "c4"]
    agents = [f"u{i}" for i in range(n_agents)]

    def rnd_label():
        return label(*rng.choices(consts, k=rng.randint(0, 2)))

    out = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            out.append(ResEq(rnd_label(), rnd_label()))
        else:
            out.append(AgentEq(rng.choice(agents), rnd_label(), rnd_label()))
    return out, agents


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.booleans())
def test_closure_matches_naive_oracle(seed, star):
    # the store is the closure of the base in normal form, and it holds,
    # modulo the unit class, every fact of the closure of the base itself
    cs, agents = _random_constraints(random.Random(seed))
    cl = Closure.close(cs, agents, erl_star=star, max_card=3)
    normal = [_normal(cl, c) for c in cs]
    naive = naive_closure(normal, agents, erl_star=star, max_card=cl.max_card)
    assert set(cl.facts()) == naive
    raw = naive_closure(cs, agents, erl_star=star, max_card=cl.max_card)
    for fact in raw - naive:        # outside normal form: derived on demand
        _replays(cl, fact)
    # each unit constant is derived from the base, so the normal form is sound
    for c in cl.units:
        _replays(cl, ("r", (c,), EPSILON))
    assert replay(cl) == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.booleans())
def test_budget_hit_matches_naive_oracle(seed, star):
    # the flag is raised exactly when saturating the base in normal form
    # drops a c_r or c_a conclusion over the budget
    cs, agents = _random_constraints(random.Random(seed))
    cl = Closure.close(cs, agents, erl_star=star, max_card=3)
    normal = [_normal(cl, c) for c in cs]
    _, dropped = naive_saturation(normal, agents, erl_star=star,
                                  max_card=cl.max_card)
    assert cl.budget_hit == dropped


@pytest.mark.parametrize("star", [False, True])
def test_budget_hit_clears_when_saturated_again(star):
    # an instance over budget before c1, c2 and c3 join eps's class fits
    # once they are gone from every label; the flag must not outlive it
    cs = [ResEq(lmul(C2, C3), EPSILON), AgentEq("u0", C2, C1),
          ResEq(lmul(C1, C2), C2), ResEq(C1, lmul(C1, C3))]
    cl = Closure.close(cs, ["u0"], erl_star=star, max_card=3)
    assert cl.units == {"c1", "c2", "c3"}
    assert not cl.budget_hit


def _normal(cl, c):
    if isinstance(c, ResEq):
        return ResEq(cl.nf(c.left), cl.nf(c.right))
    return AgentEq(c.agent, cl.nf(c.left), cl.nf(c.right))


def _replays(cl, fact):
    """Every step of the derivation of ``fact`` replays, and its chain is
    finite and ordered; returns the chain's length."""
    todo, seen = [fact], set()
    while todo:
        f = todo.pop()
        if f not in seen:
            seen.add(f)
            rule, premises = cl.derivation(f)
            assert replay_step(cl, rule, premises, f), (f, rule, premises)
            todo.extend(premises)
    chain = cl.derivation_chain(fact)
    assert chain[-1]["conclusion"] == fact_str(fact)
    for i, step in enumerate(chain):
        assert all(p < i for p in step["premises"])
    return len(chain)


def test_composite_extension_by_single_constant_steps():
    # c1 ~ c2 and c2.r.s in the domain give c1.r.s ~ c2.r.s by c_r with
    # k = r.s; the store fires c_r with one constant at a time, through
    # c1.r ~ c2.r or c1.s ~ c2.s
    cl = close([ResEq(C1, C2), ResEq(lmul(C2, LR, LS), lmul(C2, LR, LS))])
    fact = ("r", lmul(C1, LR, LS), lmul(C2, LR, LS))
    assert fact in cl
    _replays(cl, fact)
    todo, seen, extensions = [fact], set(), []
    while todo:
        f = todo.pop()
        if f not in seen:
            seen.add(f)
            rule, premises = cl.derivation(f)
            if rule == "c_r":
                (_, _, y), (_, w, _) = premises
                extensions.append(lsub(w, y))
            todo.extend(premises)
    assert extensions and all(len(k) == 1 for k in extensions)


def test_unit_class_normal_form():
    # c1 ~ e: c1 drops out of every label, and c_r no longer climbs
    # c1^n.c2.c3 ~ c2.c3 up to the budget
    cs = [ResEq(C1, EPSILON), ResEq(lmul(C2, C3), lmul(C2, C3)),
          AgentEq("u", lmul(C1, C2), C4)]
    cl = close(cs, max_card=3)
    assert cl.units == {"c1"} and not cl.budget_hit
    assert cl.domain() == [EPSILON, C2, C3, C4, lmul(C2, C3)]
    assert cl.has_res(lmul(C1, C1, C2, C3), lmul(C2, C3))
    assert cl.has_agent("u", C2, lmul(C1, C4))
    assert cl.in_domain(lmul(C1, C1, C1, C2))
    assert cl.partners_agent("u", lmul(C1, C2)) == [C2, C4]
    assert cl.partners_agent("u", C2, suffix=lmul(C1, C4)) == [EPSILON]
    assert (EPSILON, lmul(C2, C3)) in cl.splits(lmul(C1, C2, C3))
    assert replay(cl) == []
    for fact in [("r", lmul(C1, C1, C2, C3), lmul(C2, C3)),
                 ("r", lmul(C1, C2), lmul(C1, C1, C2)),
                 ("a", "u", lmul(C1, C4), lmul(C1, C2)),
                 ("a", "u", lmul(C1, C2), C4),
                 ("r", EPSILON, C1)]:
        _replays(cl, fact)


def test_unit_found_during_saturation():
    # c2 ~ e follows only from c2 ~ c3 and c3 ~ e, and c2.c3.c4 ~ c1 enters
    # before it: the store is saturated again in normal form, and each base
    # fact outside normal form keeps a derivation of its normal form
    cl = close([ResEq(lmul(C2, C3, C4), C1), ResEq(lmul(C1, C2), C4),
                AgentEq("u", lmul(C2, C2), C1), ResEq(C2, C3)],
               erl_star=True, max_card=4)
    assert not cl.units
    copy = cl.clone()
    cl.add(ResEq(C3, EPSILON))
    assert cl.units == {"c2", "c3"} and not copy.units
    assert cl.has_res(C1, C4) and cl.has_agent("u", EPSILON, C1)
    assert not copy.has_res(C1, C4)
    assert replay(cl) == [] and replay(copy) == []
    for fact in [("r", C1, C4), ("r", lmul(C1, C2), C4), ("r", C2, EPSILON),
                 ("a", "u", lmul(C2, C2), C4), ("a", "u", C4, lmul(C1, C3))]:
        _replays(cl, fact)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_closure_monotone(seed):
    rng = random.Random(seed)
    cs, agents = _random_constraints(rng)
    # a larger closure may hold a fact in a shorter normal form
    small = Closure.close(cs[:-1], agents, max_card=4)
    big = Closure.close(cs, agents, max_card=4)
    assert all(f in big for f in small.facts())
    wider = Closure.close(cs, agents, max_card=6)
    assert all(f in wider for f in big.facts())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.booleans())
def test_derived_rules_hold(seed, star):
    cs, agents = _random_constraints(random.Random(seed))
    cl = Closure.close(cs, agents, erl_star=star)
    assert derived_rule_check(cl) == []
    assert corollary_check(cl) == []
    assert replay(cl) == []
    for c in cl.units:
        _replays(cl, ("r", (c,), EPSILON))


def test_over_budget_instances_set_budget_hit():
    # c1 ~ c1.c2 makes c_r climb c1.c2^n ~ c1 without end; the instances
    # past cardinality 3 are dropped unbuilt but still flag the loss
    cl = close([ResEq(C1, lmul(C1, C2)), ResEq(lmul(C2, C3), lmul(C2, C3))],
               max_card=3)
    assert cl.budget_hit and not cl.units
    assert len(cl) == len(cl.facts()) == 28
    assert cl.has_res(lmul(C1, C2, C2), C1)
    assert max(map(len, cl.domain())) == 3
    assert replay(cl) == []


def _closure_state(cl):
    facts = cl.facts()
    return (facts, cl.domain(), cl.classes(), cl.budget_hit,
            [cl.derivation_chain(f) for f in facts])


def test_clone_independence():
    src = close([ResEq(C1, lmul(C2, C3)), AgentEq("u", C2, C4)],
                erl_star=True, max_card=3)
    before = _closure_state(src)
    copy = src.clone()
    # grows a class, merges agent classes and hits the budget in the copy
    copy.add(ResEq(C1, lmul(C1, LS)), AgentEq("u", C1, C3))
    assert copy.budget_hit
    assert _closure_state(src) == before
    after = _closure_state(copy)
    # merges classes in the source, and links the agent classes the copy
    # linked through other labels
    src.add(ResEq(C2, C4), AgentEq("u", lmul(C2, C3), C3))
    assert _closure_state(copy) == after
    assert _closure_state(src) != before
    assert replay(src) == replay(copy) == []


def test_clone_keeps_its_own_unit_steps():
    # a base fact outside normal form keeps steps in the closure it is added
    # to; the source of the clone still derives that fact from c1 ~ e
    src = close([ResEq(C1, EPSILON), ResEq(C2, C2)])
    fact = ("r", lmul(C1, C2), C2)
    chain = src.derivation_chain(fact)
    copy = src.clone()
    copy.add(ResEq(lmul(C1, C2), C2))
    assert copy.derivation(fact) == ("base", ())
    assert src.derivation_chain(fact) == chain
    _replays(src, fact)
    assert replay(src) == replay(copy) == []


def test_seed27_set_saturates_at_prover_budget():
    # c4 ~ e, c4 ~ c2, c4 ~ c1.c2 and c1.c2 ~ c3 put every constant in the
    # unit class: the store is eps's class alone, where it used to be one
    # 210-label class over the budget
    cs, agents = _random_constraints(random.Random(27))
    cl = Closure.close(cs, agents, max_card=6)
    assert cl.units == {"c1", "c2", "c3", "c4"}
    assert len(cl) == len(cl.facts()) == 2
    assert cl.domain() == [EPSILON]
    assert not cl.budget_hit
    assert replay(cl) == []
    far = ("a", agents[0], EPSILON, label("c1", "c1", "c2", "c3", "c4", "c4"))
    assert _replays(cl, far) > 1
