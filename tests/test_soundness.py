"""Seeded differential soundness check of the prover against the oracle.

Over a fixed corpus of random formulas, no ``proved`` formula may have a
countermodel in the bounded model enumeration, and every ``refuted`` one
must carry a model that validates and falsifies it at the reported world.
The same holds over random signatures, and there a renaming of agents and
resources changes no verdict and no application count.
"""

import random

from erl import RunConfig, Signature, find_countermodel, prove, satisfies, \
    validate_model

from conftest import random_formula
from oracles import random_signature, rename

LOGICS = ("erl", "erl-star")


def corpus(n=200, seed=7, sig=Signature.make(["a"], ["e", "r", "s"])):
    rng = random.Random(seed)
    return sig, [(random_formula(rng, sig, rng.choice([2, 3])), LOGICS[i % 2])
                 for i in range(n)]


def test_prover_agrees_with_oracle():
    # the corpus exercises all three outcomes
    verdicts = check_against_oracle(*corpus())
    assert all(verdicts.values()), verdicts


def test_prover_agrees_with_oracle_on_composition():
    # r.r = s holds in every model, and at the root of every tableau
    verdicts = check_against_oracle(*corpus(sig=Signature.make(
        ["a"], ["e", "r", "s"], "e", [("r", "r", "s")])))
    assert all(verdicts.values()), verdicts


def random_corpora(seed=28, signatures=16, n=25):
    """(signature, formulas) for random signatures, depth-2 formulas."""
    rng = random.Random(seed)
    for _ in range(signatures):
        sig = random_signature(rng)
        yield sig, [(random_formula(rng, sig, 2), LOGICS[i % 2])
                    for i in range(n)]


def test_prover_agrees_with_oracle_on_random_signatures():
    # the carrier bound 4 is |Res| on four resources and |Res|+1 on three;
    # larger bounds exceed the oracle's stream cap
    proved = 0
    for sig, formulas in random_corpora():
        proved += check_against_oracle(sig, formulas)["proved"]
    assert proved >= 50, proved


def test_renaming_changes_no_verdict():
    # the new names sort in the reverse order of the old ones
    for sig, formulas in random_corpora(seed=29):
        names = {}
        for old, pool in ((sorted(sig.agents), "zyxw"),
                          (sorted(sig.resources), "tsonk")):
            names.update(zip(old, pool))
        renamed = Signature.make(
            [names[a] for a in sig.agents], [names[r] for r in sig.resources],
            names[sig.unit], [(names[x], names[y], names[z])
                              for (x, y), z in sig.composition.items()])
        for phi, logic in formulas:
            config = RunConfig(logic=logic)
            out = prove(phi, sig, config)
            again = prove(rename(phi, names), renamed, config)
            assert (again.verdict, again.applications) == \
                (out.verdict, out.applications), (phi, logic, sig)


def check_against_oracle(sig, formulas):
    verdicts = {"proved": 0, "refuted": 0, "unknown": 0}
    for phi, logic in formulas:
        out = prove(phi, sig, RunConfig(logic=logic))
        verdicts[out.verdict] += 1
        if out.proved:
            assert find_countermodel(phi, sig, 4, logic) is None, (phi, logic)
        elif out.refuted:
            assert validate_model(out.countermodel, logic) == [], (phi, logic)
            assert not satisfies(out.countermodel, out.world, phi), (phi, logic)
    return verdicts
