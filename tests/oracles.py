"""Independent brute-force oracles the engine implementations are checked
against, and helpers only the tests need.  Everything here is written for
clarity, not speed.  The oracles share no code path with the modules under
test, with two exceptions: the closure checks ``derived_rule_check`` and
``corollary_check`` read a closure through its public queries, and
``restart_prove``, iterative deepening by a new tableau per depth that
``prove``'s one run capped at ``max_constants`` must match, runs on the same
``Tableau`` and outcome helpers."""

from copy import deepcopy
from dataclasses import replace
from itertools import product

from erl import models
from erl.labels import (EPSILON, Closure, const_key, fact_labels, fact_of,
                        lmul, lsub, splits_of, sublabels)
from erl.tableaux import FRESH_NEED, Tableau, _aggregate, _saturated


def forget_frames() -> None:
    """Empty the process's memory of enumerated frames and valuation
    blocks, so that the next enumeration starts cold."""
    models._levels.clear()
    models._one_block.cache_clear()


def alphabet(cl: Closure) -> list:
    """The constants of the closure's domain labels."""
    return sorted({c for x in cl.domain() for c in x}, key=const_key)


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
        labels = (fact[1], fact[2]) if fact[0] == "r" else (fact[2], fact[3])
        return all(len(side) <= max_card for side in labels)

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
                for sub in sublabels(x):                      # d_r
                    new.add(("r", sub, sub))
                for v in agents:                              # r_a
                    new.add(("a", v, x, x))
        for (x, y) in res:
            for (y2, z) in res:                               # t_r
                if y == y2:
                    new.add(("r", x, z))
            for w in refl:                                    # c_r
                k = lsub(w, y)
                if k is not None:
                    new.add(("r", lmul(x, k), w))
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
                    k = lsub(w, y)
                    if k is not None:
                        new.add(("a", u, lmul(x, k), w))
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
        for sub in sublabels(x):          # p_l
            if not cl.has_res(sub, sub):
                bad.append(("p_l", (x, y), sub))
        for sub in sublabels(y):          # p_r
            if not cl.has_res(sub, sub):
                bad.append(("p_r", (x, y), sub))
    class_of, classes = cl.classes()
    linked: set = set()
    for (u, x, y) in agent_facts(cl):
        for sub in sublabels(x):          # q_l
            if not cl.has_res(sub, sub):
                bad.append(("q_l", (u, x, y), sub))
        for sub in sublabels(y):          # q_r
            if not cl.has_res(sub, sub):
                bad.append(("q_r", (u, x, y), sub))
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
        for side in fact_labels(fact):
            for sub in sublabels(side):
                if sub not in dom:
                    bad.append(("domain", fact, sub))
    cap = cl.effective_card
    class_of, classes = cl.classes()
    # juxtaposition congruence, checked once per pair of classes whose
    # members compose into the domain
    composed: dict = {}
    for xy in dom:
        for (x, y) in splits_of(xy):
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
                prod = lmul(x2, y2)
                if class_of.get(prod) != cxy:
                    bad.append(("juxtaposition", (x2, y2), prod))
    return bad


def restart_prove(phi, sig, config):
    """Iterative deepening by restarts: one attempt per depth, each on a
    new tableau; a shallow attempt aborts at the first instance it cannot
    afford, and the last one starves such branches and goes on."""
    depths = list(range(1, config.max_constants + 1)) or [0]
    for depth in depths:
        outcome = _attempt(phi, sig, config, depth,
                           abort_on_starve=depth != depths[-1])
        if (outcome.verdict != "unknown" or not outcome.diagnostics["starved"]
                or outcome.diagnostics.get("steps_exhausted")):
            break
    return outcome


def _attempt(phi, sig, config, depth, abort_on_starve):
    t = Tableau(phi, sig, config)
    t.depth = depth
    hopeless = False
    while True:
        target = None
        for idx, b in enumerate(t.branches):
            if b.closed is not None:
                continue
            if b.has_work():
                # once no proof is possible, starved and budget-hit branches
                # are pruned, as in prove
                if not (hopeless and (b.starved or b.closure.budget_hit)):
                    target = idx
                    break
                b.hintikka_state = "pruned"
            elif b.hintikka_state is None and (refutation := _saturated(t, b)):
                return refutation
            hopeless = True
        if target is None or t.applications >= config.max_steps:
            return _aggregate(t, steps_exhausted=target is not None)
        b = t.branches[target]
        ri = b.pop()
        if t.used_constants - 1 + FRESH_NEED.get(ri.rule, 0) > depth:
            b.starved = True
            if abort_on_starve:
                return _aggregate(t, steps_exhausted=False)
            continue
        t._apply(target, ri)
