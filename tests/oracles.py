"""Independent brute-force oracles the engine implementations are checked
against, and helpers only the tests need.  Everything here is written for
clarity, not speed.

The label arithmetic below (``mul``, ``sub``, ``splits``, ``sublabels``,
``fact_of``) is this module's own: the closure oracles ``replay``,
``replay_step``, ``naive_saturation``, ``derived_rule_check`` and
``corollary_check`` use it, and take from ``erl.labels`` only the data
types ``Closure``, ``ResEq`` and ``AgentEq``, so a fault in the closure's
arithmetic cannot pass them unseen.  The other oracles share no code path
with the modules under test either, with two exceptions:
``derived_rule_check``, ``corollary_check`` and ``replay`` read a closure
through its public queries, and ``restart_prove``, iterative deepening by a
new tableau per depth that ``prove``'s one run capped at ``max_constants``
must match, runs on the same ``Tableau`` and outcome helpers."""

from copy import deepcopy
from dataclasses import replace
from functools import cache
from itertools import product

from erl import models
from erl.errors import SignatureError
from erl.labels import AgentEq, Closure, ResEq
from erl.syntax import (C, CDUAL, D, DDUAL, E, EDUAL, And, Implies, Modal, Not,
                        Or, Signature, Star, Term, Wand)
from erl.tableaux import FRESH_NEED, Tableau, _aggregate, _saturated

# ---------------------------------------------------------------------------
# Labels: sorted tuples of constants, fresh constants c<n> first in numeric
# order, then names in string order.

EPSILON = ()


@cache
def order(c: str) -> tuple:
    """The sort key of a constant."""
    digits = c[1:]
    if c[:1] == "c" and digits.isascii() and digits.isdigit():
        return (0, int(digits), "")
    return (1, 0, c)


def mul(*labels) -> tuple:
    """The multiset union of ``labels``, in canonical order."""
    return tuple(sorted((c for x in labels for c in x), key=order))


def sub(x: tuple, y: tuple) -> tuple | None:
    """The multiset difference x - y, or None when y is not part of x."""
    rest, i = [], 0
    for c in x:
        if i < len(y) and c == y[i]:
            i += 1
        else:
            rest.append(c)
    return tuple(rest) if i == len(y) else None


@cache
def splits(x: tuple) -> tuple:
    """Every pair (y, z) with y.z = x, the number of copies of x's first
    constant in y varying slowest."""
    if not x:
        return (((), ()),)
    n = x.count(x[0])
    head, rest = x[0], splits(x[n:])
    return tuple(((head,) * i + y, (head,) * (n - i) + z)
                 for i in range(n + 1) for y, z in rest)


def sublabels(x: tuple) -> list:
    """Every sub-multiset of x, EPSILON and x included."""
    return [y for y, _ in splits(x)]


def fact_of(c) -> tuple:
    """The fact key of a constraint: ("r", x, y) or ("a", u, x, y)."""
    if isinstance(c, ResEq):
        return ("r", c.left, c.right)
    return ("a", c.agent, c.left, c.right)


# ---------------------------------------------------------------------------
# Formulas

_BASE_OF_DUAL = {CDUAL: C, DDUAL: D, EDUAL: E}


def expand_duals(phi):
    """Rewrite every dual modality into not-base-not form; no other change."""
    if isinstance(phi, Modal):
        body = expand_duals(phi.body)
        if phi.op in _BASE_OF_DUAL:
            return Not(Modal(_BASE_OF_DUAL[phi.op], phi.agent, phi.term, Not(body)))
        return Modal(phi.op, phi.agent, phi.term, body)
    if isinstance(phi, Not):
        return Not(expand_duals(phi.body))
    if isinstance(phi, (And, Or, Implies, Star, Wand)):
        return type(phi)(expand_duals(phi.left), expand_duals(phi.right))
    return phi


def rename(phi, names: dict):
    """``phi`` with each agent and resource name n of its modalities
    replaced by ``names[n]``; no other change."""
    if isinstance(phi, Modal):
        return Modal(phi.op, names[phi.agent],
                     Term(tuple(names[r] for r in phi.term.parts)),
                     rename(phi.body, names))
    if isinstance(phi, Not):
        return Not(rename(phi.body, names))
    if isinstance(phi, (And, Or, Implies, Star, Wand)):
        return type(phi)(rename(phi.left, names), rename(phi.right, names))
    return phi


# ---------------------------------------------------------------------------
# Signatures

# names on both sides of "c" in sort order, agents apart from resources
AGENT_NAMES = ("a", "b", "g", "u", "z")
RESOURCE_NAMES = ("d", "e", "f", "m", "r", "s", "x")


def random_signature(rng) -> Signature:
    """A valid signature of 1-2 agents and 3-4 resources, one of them the
    unit, and 0-3 composition rows of non-unit resources, each kept only
    when ``Signature.make`` accepts it."""
    agents = rng.sample(AGENT_NAMES, rng.randint(1, 2))
    resources = rng.sample(RESOURCE_NAMES, rng.randint(3, 4))
    unit = rng.choice(resources)
    others = sorted(set(resources) - {unit})
    rows = []
    for _ in range(rng.randint(0, 3)):
        row = (rng.choice(others), rng.choice(others), rng.choice(resources))
        try:
            Signature.make(agents, resources, unit, rows + [row])
        except SignatureError:
            continue
        rows.append(row)
    return Signature.make(agents, resources, unit, rows)


# ---------------------------------------------------------------------------


def forget_frames() -> None:
    """Empty the process's memory of enumerated frames and valuation
    blocks, so that the next enumeration starts cold."""
    models._levels.clear()
    models._one_block.cache_clear()


def alphabet(cl: Closure) -> list:
    """The constants of the closure's domain labels."""
    return sorted({c for x in cl.domain() for c in x}, key=order)


def res_facts(cl: Closure) -> list:
    return [f[1:] for f in cl.facts() if f[0] == "r"]


def agent_facts(cl: Closure) -> list:
    return [f[1:] for f in cl.facts() if f[0] == "a"]


def scenario_mutations(s):
    """Yield (description, scenario) with one listed equivalence pair or
    composition triple removed; used to check the models are minimal."""
    for mname, data in sorted(s.model_data.items()):
        for i, row in enumerate(data.get("composition", [])):
            mutated = deepcopy(s.model_data)
            del mutated[mname]["composition"][i]
            yield f"{mname}: drop composition {row}", replace(s, model_data=mutated)
        for agent, pairs in sorted(data.get("equiv", {}).items()):
            for i, pair in enumerate(pairs):
                mutated = deepcopy(s.model_data)
                del mutated[mname]["equiv"][agent][i]
                yield (f"{mname}: drop {agent}-pair {pair}",
                       replace(s, model_data=mutated))


def naive_closure(constraints, agents, erl_star=False, max_card=8):
    """The facts of ``naive_saturation``."""
    return naive_saturation(constraints, agents, erl_star, max_card)[0]


def naive_saturation(constraints, agents, erl_star=False, max_card=8):
    """Fixpoint saturation by whole-relation rescans: the facts, and whether
    a c_r or c_a conclusion over the budget was dropped."""
    facts = {("r", EPSILON, EPSILON)}
    dropped = False
    facts.update(fact_of(c) for c in constraints)

    def fits(fact):
        return all(len(side) <= max_card for side in fact[-2:])

    changed = True
    while changed:
        changed = False
        new = set()
        res = [(f[1], f[2]) for f in facts if f[0] == "r"]
        ag = [(f[1], f[2], f[3]) for f in facts if f[0] == "a"]
        refl = [x for (x, y) in res if x == y]
        for (x, y) in res:
            new.add(("r", y, x))                              # s_r
            if x == y:
                for part in sublabels(x):                     # d_r
                    new.add(("r", part, part))
                for v in agents:                              # r_a
                    new.add(("a", v, x, x))
        for (x, y) in res:
            for (y2, z) in res:                               # t_r
                if y == y2:
                    new.add(("r", x, z))
            for w in refl:                                    # c_r
                k = sub(w, y)
                if k is not None:
                    new.add(("r", mul(x, k), w))
                    dropped |= len(x) + len(k) > max_card
        for (u, x, y) in ag:
            new.add(("a", u, y, x))                           # s_a
            new.add(("r", x, x))                              # k_r
            for (u2, y2, z) in ag:                            # t_a
                if u2 == u and y2 == y:
                    new.add(("a", u, x, z))
            for (x2, k) in res:                               # k_a
                if x2 == x:
                    new.add(("a", u, k, y))
            if erl_star:
                for w in refl:                                # c_a
                    k = sub(w, y)
                    if k is not None:
                        new.add(("a", u, mul(x, k), w))
                        dropped |= len(x) + len(k) > max_card
        new = {f for f in new if fits(f)}
        if not new <= facts:
            facts |= new
            changed = True
    return facts, dropped


def count_models_bruteforce(n_extra, agents, atoms):
    """Count models over carrier {e, w1..wk} for an empty signature table,
    with no symmetry reduction, by sheer enumeration of all cell values,
    partitions, and valuations.  Small n_extra only."""
    carrier = ["e"] + [f"w{i}" for i in range(1, n_extra + 1)]
    n = len(carrier)
    cells = [(i, j) for i in range(1, n) for j in range(i, n)]
    count = 0

    def compose(table, i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return table.get((i, j) if i <= j else (j, i))

    def assoc_ok(table):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    bc = compose(table, b, c)
                    if bc is None:
                        continue
                    abc = compose(table, a, bc)
                    if abc is None:
                        continue
                    ab = compose(table, a, b)
                    if ab is None or compose(table, ab, c) != abc:
                        return False
        return True

    def partitions(n):
        out = []

        def rec(i, maxid, cur):
            if i == n:
                out.append(tuple(cur))
                return
            for b in range(maxid + 2):
                cur.append(b)
                rec(i + 1, max(maxid, b), cur)
                cur.pop()

        rec(0, -1, [])
        return out

    parts = partitions(n)
    for values in product([None] + list(range(n)), repeat=len(cells)):
        table = {c: v for c, v in zip(cells, values) if v is not None}
        if not assoc_ok(table):
            continue
        for _assignment in product(parts, repeat=len(agents)):
            for _valuation in product(range(1 << n), repeat=len(atoms)):
                count += 1
    return count


def check_signature_axioms(resources, unit, table):
    """Exhaustive triple-loop check of the signature axioms; returns True
    when the (completed) table is a valid partial monoid on the names."""
    def comp(r, s):
        if r == unit:
            return s
        if s == unit:
            return r
        return table.get((r, s)) or table.get((s, r))

    for r in resources:
        for s in resources:
            a, b = comp(r, s), comp(s, r)
            if a != b:
                return False
            for t in resources:
                st = comp(s, t)
                if st is None:
                    continue
                r_st = comp(r, st)
                if r_st is None:
                    continue
                rs = comp(r, s)
                if rs is None or comp(rs, t) != r_st:
                    return False
    return True


def derived_rule_check(cl: Closure) -> list[tuple]:
    """Verify the five derivable rules on every stored fact; returns the
    violating instances (empty = all hold)."""
    bad = []
    for (x, y) in res_facts(cl):
        for part in sublabels(x):          # p_l
            if not cl.has_res(part, part):
                bad.append(("p_l", (x, y), part))
        for part in sublabels(y):          # p_r
            if not cl.has_res(part, part):
                bad.append(("p_r", (x, y), part))
    class_of, classes = cl.classes()
    linked: set = set()
    for (u, x, y) in agent_facts(cl):
        for part in sublabels(x):          # q_l
            if not cl.has_res(part, part):
                bad.append(("q_l", (u, x, y), part))
        for part in sublabels(y):          # q_r
            if not cl.has_res(part, part):
                bad.append(("q_r", (u, x, y), part))
        linked.add((u, class_of[x], class_of[y]))
    # w_a: the agent relation must be a union of products of resource classes
    for (u, cx, cy) in sorted(linked):
        for x2 in classes[cx]:
            for y2 in classes[cy]:
                if not cl.has_agent(u, x2, y2):
                    bad.append(("w_a", u, (x2, y2)))
    return bad


def corollary_check(cl: Closure) -> list[tuple]:
    """Domain/reflexivity equivalences and juxtaposition congruence, the
    latter restricted to conclusions within the cardinality budget."""
    bad = []
    dom = set(cl.domain())
    for x in dom:
        if not cl.has_res(x, x):
            bad.append(("refl_r", x))
        for u in cl.agents:
            if not cl.has_agent(u, x, x):
                bad.append(("refl_a", u, x))
    for fact in cl.facts():
        for side in fact[-2:]:
            for part in sublabels(side):
                if part not in dom:
                    bad.append(("domain", fact, part))
    cap = cl.max_card
    class_of, classes = cl.classes()
    # juxtaposition congruence, checked once per pair of classes whose
    # members compose into the domain
    composed: dict = {}
    for xy in dom:
        for (x, y) in splits(xy):
            key = (class_of[x], class_of[y])
            prev = composed.get(key)
            if prev is not None and prev != class_of[xy]:
                bad.append(("juxtaposition-ambiguous", xy, (x, y)))
            composed[key] = class_of[xy]
    for (cx, cy), cxy in sorted(composed.items()):
        for x2 in classes[cx]:
            for y2 in classes[cy]:
                if len(x2) + len(y2) > cap:
                    continue
                prod = mul(x2, y2)
                if class_of.get(prod) != cxy:
                    bad.append(("juxtaposition", (x2, y2), prod))
    return bad


def replay(cl: Closure) -> list[tuple]:
    """Re-derive every fact of the closure from its derivation step; returns
    the facts whose steps do not replay."""
    return [f for f in cl.facts() if not replay_step(cl, *cl.derivation(f), f)]


def replay_step(cl: Closure, rule: str, premises: tuple, fact: tuple) -> bool:
    """Whether ``fact`` is exactly what ``rule`` concludes from ``premises``,
    all of them facts of the closure."""
    if not all(p in cl for p in premises):
        return False
    if rule == "base":
        return fact in {fact_of(c) for c in cl.base}
    if rule == "eps":
        return fact == ("r", EPSILON, EPSILON)
    if rule == "s_r":
        (_, x, y), = premises
        return fact == ("r", y, x)
    if rule == "d_r":
        (_, w, w2), = premises
        return w == w2 and fact[0] == "r" and fact[1] == fact[2] \
            and sub(w, fact[1]) is not None
    if rule == "t_r":
        (_, x, y), (_, y2, z) = premises
        return y == y2 and fact == ("r", x, z)
    if rule == "c_r":
        (_, x, y), (_, w, w2) = premises
        k = sub(w, y)
        return w == w2 and k is not None and fact == ("r", mul(x, k), w)
    if rule == "k_r":
        (_, u, x, y), = premises
        return fact == ("r", x, x)
    if rule == "r_a":
        (_, x, x2), = premises
        return x == x2 and fact[0] == "a" and fact[1] in cl.agents \
            and fact[2:] == (x, x)
    if rule == "s_a":
        (_, u, x, y), = premises
        return fact == ("a", u, y, x)
    if rule == "t_a":
        (_, u, x, y), (_, u2, y2, z) = premises
        return u == u2 and y == y2 and fact == ("a", u, x, z)
    if rule == "k_a":
        (_, u, x, y), (_, x2, k) = premises
        return x == x2 and fact == ("a", u, k, y)
    if rule == "c_a":
        (_, u, x, y), (_, w, w2) = premises
        k = sub(w, y)
        return cl.erl_star and w == w2 and k is not None \
            and fact == ("a", u, mul(x, k), w)
    return False


def restart_prove(phi, sig, config):
    """Iterative deepening by restarts: one attempt per depth, each on a
    new tableau; a shallow attempt aborts at the first instance it cannot
    afford, and the last one starves such branches and goes on."""
    depths = list(range(1, config.max_constants + 1)) or [0]
    for depth in depths:
        outcome = _attempt(phi, sig, config, depth,
                           abort_on_starve=depth != depths[-1])
        if outcome is not None and (
                outcome.verdict != "unknown" or not outcome.diagnostics["starved"]
                or outcome.diagnostics.get("steps_exhausted")):
            break
    return outcome


def _attempt(phi, sig, config, depth, abort_on_starve):
    """One attempt at ``depth``; None when it aborts at the first instance
    it cannot afford."""
    t = Tableau(phi, sig, config)
    t.depth = depth
    while t.branches:
        b = t.branches[-1]
        if not b.has_work():
            state = _saturated(t, b)
            if not isinstance(state, str):
                return state
        elif t.leaves and (b.starved or b.closure.budget_hit):
            # once no proof is possible, starved and budget-hit branches
            # are pruned, as in prove
            state = "pruned"
        elif t.applications >= config.max_steps:
            break
        else:
            ri = b.pop()
            if t.used_constants - 1 + FRESH_NEED.get(ri.rule, 0) > depth:
                b.starved = True
                if abort_on_starve:
                    return None
            else:
                t._apply(ri)
            continue
        t.branches.pop()
        t.leaves.append((state, b.starved, b.closure.budget_hit))
    return _aggregate(t)
