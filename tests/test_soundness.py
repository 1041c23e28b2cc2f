"""Seeded differential soundness check of the prover against the oracle.

Over a fixed corpus of random formulas, no ``proved`` formula may have a
countermodel in the bounded model enumeration, and every ``refuted`` one
must carry a model that validates and falsifies it at the reported world.
"""

import random

from erl import RunConfig, Signature, find_countermodel, prove, satisfies, \
    validate_model

from conftest import random_formula

LOGICS = ("erl", "erl-star")


def corpus(n=200, seed=7, sig=Signature.make(["a"], ["e", "r", "s"])):
    rng = random.Random(seed)
    return sig, [(random_formula(rng, sig, rng.choice([2, 3])), LOGICS[i % 2])
                 for i in range(n)]


def test_prover_agrees_with_oracle():
    check_against_oracle(*corpus())


def test_prover_agrees_with_oracle_on_composition():
    # r.r = s holds in every model, and at the root of every tableau
    check_against_oracle(*corpus(sig=Signature.make(["a"], ["e", "r", "s"],
                                                    "e", [("r", "r", "s")])))


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
    # the corpus exercises all three outcomes
    assert all(verdicts.values()), verdicts
