"""Seeded inputs for the workloads.

``random_formula`` is the benchmark's own copy of the random-formula grammar
used by the test suite (with duals, over atoms p and q), so that edits to the
tests cannot change a workload.  Inputs are made as formula text before each
op starts; each op parses its formula itself.
"""

from __future__ import annotations

import random

from erl import (And, Atom, Bot, Implies, Modal, Not, Or, Signature, Star,
                 Top, Unit, Wand, C, D, E, CDUAL, DDUAL, EDUAL, format_formula,
                 term_of)

LOGICS = ("erl", "erl-star")
DEPTH = 3
ATOMS = ("p", "q")

_LEAVES = ["atom", "atom", "I", "top", "bot"]
_INNER = ["not", "and", "or", "imp", "star", "wand", "C", "D", "E",
          "Cd", "Dd", "Ed", "Cd", "Dd", "Ed"]
_BINARY = {"and": And, "or": Or, "imp": Implies, "star": Star, "wand": Wand}
_MODAL = {"C": C, "D": D, "E": E, "Cd": CDUAL, "Dd": DDUAL, "Ed": EDUAL}


def random_formula(rng: random.Random, sig: Signature, depth: int):
    kind = rng.choice(_INNER + _LEAVES) if depth > 0 else rng.choice(_LEAVES)
    if kind == "atom":
        return Atom(rng.choice(ATOMS))
    if kind == "I":
        return Unit()
    if kind == "top":
        return Top()
    if kind == "bot":
        return Bot()
    if kind == "not":
        return Not(random_formula(rng, sig, depth - 1))
    if kind in _BINARY:
        return _BINARY[kind](random_formula(rng, sig, depth - 1),
                             random_formula(rng, sig, depth - 1))
    agent = rng.choice(sorted(sig.agents))
    non_unit = sorted(sig.resources - {sig.unit})
    pool = [[], *([r] for r in non_unit)]
    if non_unit:
        pool.append([non_unit[0], non_unit[0]])
    term = term_of(rng.choice(pool), sig)
    return Modal(_MODAL[kind], agent, term,
                 random_formula(rng, sig, depth - 1))


def formula_stream(seed: int, sig: Signature):
    """Endless (index, text, logic) stream of depth-DEPTH formulas; the
    logics alternate by index."""
    rng = random.Random(seed)
    i = 0
    while True:
        text = format_formula(random_formula(rng, sig, DEPTH), sig.unit)
        yield i, text, LOGICS[i % 2]
        i += 1
