import random

from hypothesis import given, settings, strategies as st

from erl.labels import (AgentEq, Closure, EPSILON, ResEq, fact_str, label,
                        label_of, label_str, lcontains, lmul, lsub, splits_of,
                        sublabels)

from oracles import corollary_check, derived_rule_check, naive_closure

C1, C2, C3, C4 = label("c1"), label("c2"), label("c3"), label("c4")
LS, LR = label("s"), label("r")


def close(cs, agents=("u",), erl_star=False, max_card=None):
    return Closure.close(cs, agents, erl_star=erl_star, max_card=max_card)


def test_label_primitives():
    assert lmul(C1, LS) == ("c1", "s")
    assert lmul(C2, C1) == ("c1", "c2")
    assert lsub(("c1", "s"), LS) == C1
    assert lsub(C1, LS) is None
    assert lcontains(("c1", "c1", "s"), ("c1", "s"))
    assert set(sublabels(("c1", "s"))) == {(), C1, LS, ("c1", "s")}
    assert label_str(EPSILON) == "e"
    assert label_str(lmul(C2, LR)) == "c2.r"


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
    assert cl.alphabet() == ["c1", "c2", "c3"]
    assert close([]).domain() == [EPSILON]


def test_alphabet_preserved_under_closure():
    cs = [ResEq(C1, lmul(C2, C3)), AgentEq("u", C1, lmul(C4, LS))]
    cl = close(cs)
    base_alphabet = set()
    for c in cs:
        for side in ((c.left, c.right)):
            base_alphabet.update(side)
    assert set(cl.alphabet()) == base_alphabet


def test_erl_star_rule():
    base = [AgentEq("u", C1, C2), ResEq(lmul(C2, C3), lmul(C2, C3))]
    cl = close(base, erl_star=True)
    assert cl.has_agent("u", lmul(C1, C3), lmul(C2, C3))
    assert not close(base, erl_star=False).has_agent(
        "u", lmul(C1, C3), lmul(C2, C3))


def test_compatibility_property_on_store():
    cl = close([AgentEq("u", C1, C2), ResEq(lmul(C2, C3), lmul(C2, C3))],
               erl_star=True)
    cap = cl.effective_card
    for (u, x, y) in cl.agent_facts():
        for w in cl.domain():
            k = lsub(w, y)
            if k is not None and len(lmul(x, k)) <= cap:
                assert cl.has_agent(u, lmul(x, k), w)


def test_incremental_matches_batch():
    batch = close([ResEq(C1, lmul(C2, C3)), AgentEq("u", C2, C4)])
    inc = close([ResEq(C1, lmul(C2, C3))])
    inc.add(AgentEq("u", C2, C4))
    assert set(batch.facts()) == set(inc.facts())


def test_budget_raise_matches_batch():
    # the second constraint raises the default budget from 4 to 5, so
    # instances suppressed under the first add fire in the second
    first, second = ResEq(C1, lmul(C1, LS)), ResEq(C2, lmul(C2, C3, C4))
    inc = close([first])
    assert inc.effective_card == 4 and inc.budget_hit
    inc.add(second)
    batch = close([first, second])
    assert inc.effective_card == batch.effective_card == 5
    assert set(inc.facts()) == set(batch.facts())
    assert inc.has_res(lmul(C1, LS, LS, LS, LS), C1)
    assert inc.budget_hit and batch.budget_hit


def test_derivations_replay_and_serialize():
    cl = close([ResEq(C1, lmul(C2, C3)), AgentEq("u", C2, C4)])
    assert cl.replay() == []
    chain = cl.derivation_chain(("a", "u", C4, C2))
    assert chain[-1]["conclusion"] == "c4 ~[u] c2"
    for i, step in enumerate(chain):
        assert all(p < i for p in step["premises"])


def _random_constraints(rng, n_agents=1):
    consts = ["c1", "c2", "c3", "c4"]
    agents = [f"u{i}" for i in range(n_agents)]

    def rnd_label():
        return label_of(rng.choices(consts, k=rng.randint(0, 2)))

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
    cs, agents = _random_constraints(random.Random(seed))
    cl = Closure.close(cs, agents, erl_star=star, max_card=3)
    naive = naive_closure(cs, agents, erl_star=star, max_card=cl.effective_card)
    assert set(cl.facts()) == naive


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_closure_monotone(seed):
    rng = random.Random(seed)
    cs, agents = _random_constraints(rng)
    small = Closure.close(cs[:-1], agents, max_card=4)
    big = Closure.close(cs, agents, max_card=4)
    assert set(small.facts()) <= set(big.facts())
    wider = Closure.close(cs, agents, max_card=6)
    assert set(big.facts()) <= set(wider.facts())


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.booleans())
def test_derived_rules_hold(seed, star):
    cs, agents = _random_constraints(random.Random(seed))
    cl = Closure.close(cs, agents, erl_star=star)
    assert derived_rule_check(cl) == []
    assert corollary_check(cl) == []
    assert cl.replay() == []


def test_over_budget_instances_set_budget_hit():
    # c1 ~ e makes c_r climb c1^n.c2.c3 ~ c2.c3 without end; the instances
    # past cardinality 3 are dropped unbuilt but still flag the loss
    cl = close([ResEq(C1, EPSILON), ResEq(lmul(C2, C3), lmul(C2, C3))],
               max_card=3)
    assert cl.budget_hit
    assert len(cl) == len(cl.facts()) == 76
    assert cl.has_res(lmul(C1, C2, C3), lmul(C2, C3))
    assert max(map(len, cl.domain())) == 3
    assert cl.replay() == []


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
    assert src.replay() == copy.replay() == []


def test_seed27_set_saturates_at_prover_budget():
    # one 210-label class at the prover's max_card=6
    cs, agents = _random_constraints(random.Random(27))
    cl = Closure.close(cs, agents, max_card=6)
    assert len(cl) == len(cl.facts()) == 88_200
    assert len(cl.domain()) == 210
    assert len(cl.classes()[1]) == 1
    assert cl.budget_hit
    far = ("a", agents[0], EPSILON, max(cl.domain(), key=len))
    chain = cl.derivation_chain(far)
    assert chain[-1]["conclusion"] == fact_str(far)
    for i, step in enumerate(chain):
        assert all(p < i for p in step["premises"])
