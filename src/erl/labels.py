"""Resource labels and the constraint-closure engine.

A label is a finite multiset of constants: either the lambda-image of a
non-unit resource (written as the resource name) or a fresh constant
``c1, c2, ...`` introduced during proof search.  The empty label ``EPSILON``
is the image of the unit.

Constraints relate labels: ``x ~ y`` on resources, or ``x ~[u] y`` for an
agent ``u``.  Their closure is the least set of facts closed under the rules

    eps:            |- eps ~ eps
    s_r: x ~ y      |- y ~ x
    d_r: xy ~ xy    |- x ~ x
    t_r: x ~ y, y ~ z           |- x ~ z
    c_r: x ~ y, yk ~ yk         |- xk ~ yk
    k_r: x ~[u] y               |- x ~ x
    r_a: x ~ x                  |- x ~[v] x      (every agent v)
    s_a: x ~[u] y               |- y ~[u] x
    t_a: x ~[u] y, y ~[u] z     |- x ~[u] z
    k_a: x ~[u] y, x ~ k        |- k ~[u] y

and, when the compatible variant of the logic is selected,

    c_a: x ~[u] y, yk ~ yk      |- xk ~[u] yk

The store fires c_r and c_a with single-constant k only, and the closure is
the same set.  Given x ~ y with y.k in the domain, k = c1...cm, each
y.c1...ci is in the domain by d_r, so c_r with ci alone gives
x.c1...ci ~ y.c1...ci for i = 1..m in turn (likewise c_a).  No label of the
chain is longer than x.k: each step fits the budget when x.k does, and the
first step that does not is suppressed, as the composite instance would be.

Saturation is budgeted by a maximum label cardinality: rule instances whose
conclusion exceeds the budget are suppressed and a flag records the loss of
completeness.  Every fact has a derivation, built on demand, that
``tests/oracles.replay`` re-derives step by step.

The closure is kept modulo the unit class.  Let U be the constants c with
c ~ eps, and nf(x) the label x with the constants of U dropped.  nf is a
monoid homomorphism that maps every rule instance to an instance, and
x ~ nf(x) follows for each x of the domain by c_r from c ~ eps; so x ~ y
holds iff nf(x) ~ nf(y) does, and the store holds normal forms only.  The
budget counts normal-form cardinality, so c ~ eps no longer makes c_r
climb c^n.k ~ k until the budget is hit.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Iterable

from .config import RunConfig
from .syntax import BASE_OF, C, D, Modal, Term

Label = tuple  # sorted tuple of constant names

EPSILON: Label = ()

_FRESH = re.compile(r"^c([0-9]+)$")


def fresh_constant_name(index: int) -> str:
    return f"c{index}"


@cache
def const_key(c: str):
    m = _FRESH.match(c)
    if m:
        return (0, int(m.group(1)), "")
    return (1, 0, c)


def label(*constants: str) -> Label:
    return tuple(sorted(constants, key=const_key))


def lam(term: Term) -> Label:
    """Lambda embedding of a resource term (unit factors are already gone)."""
    return label(*term.parts)


def lmul(*labels: Label) -> Label:
    return tuple(sorted(sum(labels, ()), key=const_key))


def lsub(x: Label, y: Label) -> Label | None:
    """Multiset difference x - y, or None if y is not included in x."""
    ny = len(y)
    if ny > len(x):
        return None
    if ny == 0:
        return x
    out = []
    j = 0
    for c in x:
        if j < ny and c == y[j]:
            j += 1
        else:
            out.append(c)
    if j < ny:
        return None
    return tuple(out)


def sublabels(x: Label) -> list[Label]:
    """All sub-multisets of x, including EPSILON and x itself."""
    return [left for left, _ in splits_of(x)]


def splits_of(x: Label) -> list[tuple[Label, Label]]:
    """All ordered two-way multiset splits of x, the multiplicity of the
    last constant varying fastest."""
    out = [((), ())]
    i, n = 0, len(x)
    while i < n:
        c, j = x[i], i + 1
        while j < n and x[j] == c:
            j += 1
        out = [(left + (c,) * t, right + (c,) * (j - i - t))
               for left, right in out for t in range(j - i + 1)]
        i = j
    return out


def label_str(x: Label) -> str:
    return ".".join(x) if x else "e"


def label_key(x: Label):
    return (len(x), tuple(const_key(c) for c in x))


# ---------------------------------------------------------------------------
# Constraints


@dataclass(frozen=True)
class ResEq:
    left: Label
    right: Label

    def __str__(self):
        return f"{label_str(self.left)} ~ {label_str(self.right)}"


@dataclass(frozen=True)
class AgentEq:
    agent: str
    left: Label
    right: Label

    def __str__(self):
        return f"{label_str(self.left)} ~[{self.agent}] {label_str(self.right)}"


Constraint = object  # ResEq | AgentEq

# Fact keys: ("r", x, y) and ("a", u, x, y)


def fact_of(c) -> tuple:
    if isinstance(c, ResEq):
        return ("r", c.left, c.right)
    if isinstance(c, AgentEq):
        return ("a", c.agent, c.left, c.right)
    raise TypeError(f"not a constraint: {c!r}")


def fact_str(fact: tuple) -> str:
    if fact[0] == "r":
        return f"{label_str(fact[1])} ~ {label_str(fact[2])}"
    return f"{label_str(fact[2])} ~[{fact[1]}] {label_str(fact[3])}"


def fact_labels(fact: tuple) -> tuple[Label, Label]:
    return (fact[1], fact[2]) if fact[0] == "r" else (fact[2], fact[3])


def _fact(u: str | None, x: Label, y: Label) -> tuple:
    return ("r", x, y) if u is None else ("a", u, x, y)


class Closure:
    """Budgeted closure of a constraint set, stored as equivalence classes.

    The store keeps the domain (the labels x with x ~ x, each with the step
    deriving x ~ x), its partition into resource classes (kind None) and,
    coarser, agent classes, and per kind a proof forest with one edge per
    union, holding the fact joined on with its rule and premises (after
    Nieuwenhuis and Oliveras, RTA 2005).  The forest is oriented toward its
    roots: a union re-roots the smaller side's tree at its endpoint and hangs
    it below the other endpoint.  Only d_r, c_r and c_a fire, the last two
    with a single constant k (see the module docstring); the steps of the
    other rules are built on demand from the last edge of a forest path,
    read off by walking parents.

    The store holds labels in normal form only (see the module docstring):
    every query normalizes its labels first, which costs one truth test
    while ``units`` is empty.  The first time a union puts a constant c in
    eps's class, the steps deriving c ~ eps are kept, c joins ``units``, and
    the store is saturated again from ``base``; a base constraint that is
    not in normal form enters as its normal form, with kept steps deriving
    that from it by c_r and t_r.  Other facts about labels outside normal
    form are derived on demand from c ~ eps the same way.

    Queries are sound for any budget; they are complete for every derivation
    whose intermediate labels stay within the cardinality budget
    ``max_card``, fixed for the closure's life.  When an instance is
    suppressed, ``budget_hit`` is set, and the prover treats the branch as
    undecided rather than trusting saturation.  The flag is for the store
    as it stands: a new saturation from ``base``, when a constant joins the
    unit class, clears it, and each instance still over budget sets it
    again.
    """

    def __init__(self, agents: Iterable[str], erl_star: bool = False,
                 max_card: int = RunConfig.closure_budget):
        self.agents = tuple(sorted(agents))
        self.erl_star = erl_star
        self.base: list = []
        self._base_facts: set = set()           # fact_of(c) for c in base
        self.units = frozenset()                # constants c with c ~ eps
        self._steps: dict = {}                  # kept steps: fact -> (rule, premises)
        self._found: list = []                  # constants a union just put in eps's class
        self.max_card = max_card                # label budget
        self.shared = False                     # a root every proof reads: never written
        self.extraction = (None, None)          # (key, index) hintikka built on this store
        self._reset()

    def _reset(self) -> None:
        """Empty the store down to eps ~ eps."""
        self.budget_hit = False
        self._facts = 0                         # sum of squared class sizes
        self._dom: dict[Label, tuple] = {}      # x -> (rule, premises) of x ~ x
        self._root: dict = {u: {} for u in (None, *self.agents)}  # x -> root
        self._members: dict = {u: {} for u in self._root}     # root -> labels
        self._ext: dict = {u: {} for u in self._root}   # root -> {k: y.k}, if any
        self._up: dict = {u: {} for u in self._root}    # x -> (parent, edge)
        self._queue: deque = deque()            # due c_r/c_a: (kind, x, k, w)
        self._enter(EPSILON, None)

    # -- construction -----------------------------------------------------

    @staticmethod
    def close(constraints: Iterable, agents: Iterable[str], erl_star: bool = False,
              max_card: int = RunConfig.closure_budget) -> "Closure":
        cl = Closure(agents, erl_star, max_card)
        cl.add(*constraints)
        return cl

    def add(self, *constraints) -> None:
        """Add base constraints and resume saturation."""
        assert not self.shared, "a shared closure is copied before a write"
        facts = [fact_of(c) for c in constraints]
        self.base.extend(constraints)
        self._base_facts.update(facts)
        for fact in facts:
            if not self._found:
                self._insert(fact)
        self._saturate()

    def _insert(self, fact: tuple) -> None:
        """Enter a base fact, in normal form, and join its two labels."""
        u = None if fact[0] == "r" else fact[1]
        x, y = fact_labels(fact)
        rule, premises = "base", ()
        if self.units and (self.nf(x), self.nf(y)) != (x, y):
            fact = self._normal_base(u, x, y)
            x, y = fact_labels(fact)
            rule, premises = self._steps[fact]
        self._enter(x, fact)
        self._enter(y, _fact(u, y, x))
        self._union(u, x, y, fact, rule, premises)

    def _normal_base(self, u: str | None, a: Label, b: Label) -> tuple:
        """Keep steps deriving nf(a) ~ nf(b) (or ~[u]) from the base fact
        a ~ b; returns that fact."""
        steps, base = self._steps, _fact(u, a, b)
        steps.setdefault(base, ("base", ()))
        flip = _fact(u, b, a)
        steps.setdefault(flip, ("s_r" if u is None else "s_a", (base,)))
        # a ~ a and b ~ b
        refl = ((("t_r", (base, flip)), ("t_r", (flip, base))) if u is None
                else (("k_r", (base,)), ("k_r", (flip,))))
        na, nb = self.nf(a), self.nf(b)
        fact = base
        if na != a:
            down = self._down(a, refl[0])                       # na ~ a
            up = ("r", a, na)
            steps.setdefault(up, ("s_r", (down,)))
            fact = _fact(u, na, b)
            steps.setdefault(fact, ("t_r", (down, base)) if u is None
                             else ("k_a", (base, up)))
        if nb != b:
            down = self._down(b, refl[1])                       # nb ~ b
            up = ("r", b, nb)
            steps.setdefault(up, ("s_r", (down,)))
            if u is None:
                steps.setdefault(("r", na, nb), ("t_r", (fact, up)))
            else:
                g, h = ("a", u, b, na), ("a", u, nb, na)
                steps.setdefault(g, ("s_a", (fact,)))
                steps.setdefault(h, ("k_a", (g, up)))
                steps.setdefault(("a", u, na, nb), ("s_a", (h,)))
            fact = _fact(u, na, nb)
        return fact

    def _down(self, s: Label, refl: tuple) -> tuple:
        """Keep steps deriving nf(s) ~ s from s ~ s (derived by ``refl``),
        dropping one unit constant c at a time by c_r from eps ~ c."""
        steps, top = self._steps, ("r", s, s)
        steps.setdefault(top, refl)
        fact, t = top, s                        # fact is t ~ s
        for c in s:
            if c not in self.units:
                continue
            t1, unit = lsub(t, (c,)), ("r", (c,), EPSILON)
            steps.setdefault(("r", t, t), ("d_r", (top,)))
            steps.setdefault(("r", EPSILON, (c,)), ("s_r", (unit,)))
            drop = ("r", t1, t)
            steps.setdefault(drop, ("c_r", (("r", EPSILON, (c,)), ("r", t, t))))
            if t != s:
                steps.setdefault(("r", t1, s), ("t_r", (drop, fact)))
            fact, t = ("r", t1, s), t1
        return fact

    def clone(self) -> "Closure":
        other = Closure.__new__(Closure)
        other.__dict__.update(self.__dict__)
        other.base = list(self.base)
        other._base_facts = set(self._base_facts)
        other._dom = dict(self._dom)
        other._root = {u: dict(d) for u, d in self._root.items()}
        other._members = {u: dict(d) for u, d in self._members.items()}
        other._ext = {u: {r: dict(e) for r, e in d.items()}
                      for u, d in self._ext.items()}
        other._up = {u: dict(d) for u, d in self._up.items()}
        other._steps = dict(self._steps)
        other._queue = deque()
        other.shared = False
        return other

    # -- queries -----------------------------------------------------------

    def nf(self, x: Label) -> Label:
        """The normal form of x: x without the constants of ``units``."""
        units = self.units
        return tuple(c for c in x if c not in units) if units else x

    def __len__(self):
        return self._facts

    def __contains__(self, fact: tuple) -> bool:
        return self.has_res(*fact[1:]) if fact[0] == "r" else self.has_agent(*fact[1:])

    def _class(self, u: str | None, x: Label) -> tuple:
        if self.units:
            x = self.nf(x)
        root = self._root.get(u, {})
        return self._members[u][root[x]] if x in root else ()

    def _same(self, u: str | None, x: Label, y: Label) -> bool:
        if self.units:
            x, y = self.nf(x), self.nf(y)
        root = self._root[u]
        return x in root and root[x] == root.get(y)

    def has_res(self, x: Label, y: Label) -> bool:
        return self._same(None, x, y)

    def has_agent(self, u: str, x: Label, y: Label) -> bool:
        return u in self.agents and self._same(u, x, y)

    def partners_agent(self, u: str, x: Label, suffix: Label | None = None) -> list:
        """Without a suffix: all y with x ~[u] y.  With suffix w: all y such
        that x ~[u] y.w holds (the y of the modal rule conditions).  The y
        are in normal form."""
        partners = self._class(u, x)
        if suffix is not None:
            suffix = self.nf(suffix)
            partners = {lsub(p, suffix) for p in partners} - {None}
        return sorted(partners, key=label_key)

    def classes(self) -> tuple[dict, list]:
        """Partition of the domain under the resource relation: (label ->
        class position, classes as label_key-sorted member lists)."""
        classes = sorted((sorted(m, key=label_key)
                          for m in self._members[None].values()),
                         key=lambda m: label_key(m[0]))
        return {x: pos for pos, m in enumerate(classes) for x in m}, classes

    def splits(self, x: Label) -> list:
        """All ordered pairs (y, z) in normal form with x ~ y.z in the closure."""
        out = {s for w in self._class(None, x) for s in splits_of(w)}
        return sorted(out, key=lambda p: (label_key(p[0]), label_key(p[1])))

    def domain(self) -> list:
        """All sublabels of the labels in facts: the labels x with x ~ x, in
        normal form."""
        return sorted(self._dom, key=label_key)

    def in_domain(self, x: Label) -> bool:
        return (self.nf(x) if self.units else x) in self._dom

    def facts(self) -> list:
        return sorted(_fact(u, x, y) for u, members in self._members.items()
                      for m in members.values() for x in m for y in m)

    # -- derivations -------------------------------------------------------

    def derivation(self, fact: tuple) -> tuple:
        """(rule, premises) of the last step deriving a fact of the closure:
        a kept step, a step from facts with fewer unit constants, a step from
        the domain, by r_a, or along the fact's forest path, whose edges are
        no newer than the fact.  t_r/t_a split off the last edge v-y: the
        edge to y from its child on the walk up from x, or y's own parent
        edge when that walk misses y.  s_r/s_a flip an edge, and k_a turns a
        resource edge into an agent fact."""
        if fact not in self:
            raise KeyError(fact)
        if fact in self._base_facts:
            return ("base", ())
        if fact in self._steps:
            return self._steps[fact]
        u, x, y = (None, *fact[1:]) if fact[0] == "r" else fact[1:]
        if self.units and (step := self._unit_step(u, x, y)):
            return step
        if x == y:
            return self._dom[x] if u is None else ("r_a", (("r", x, x),))
        up, v = self._up[u], x
        while v in up and up[v][0] != y:
            v = up[v][0]
        v, (edge, rule, premises) = (v, up[v][1]) if v in up else up[y]
        if v != x:
            return ("t_r" if u is None else "t_a", (_fact(u, x, v), _fact(u, v, y)))
        if edge[0] == "r" and u is not None:
            return ("k_a", (("a", u, y, y), ("r", y, x)))
        if fact_labels(edge) == (x, y):
            return (rule, premises)
        return ("s_r" if u is None else "s_a", (edge,))

    def _unit_step(self, u: str | None, x: Label, y: Label) -> tuple | None:
        """The step deriving x ~ y (or ~[u]) from facts with fewer unit
        constants on the left, or from its flip, when x or y holds one: c_r
        from c ~ eps gives c.x1 ~ x1, then t_r, r_a or k_a; None for a fact
        in normal form."""
        c = next((c for c in x if c in self.units), None)
        if c is None:
            if self.nf(y) == y:
                return None
            return ("s_r", (("r", y, x),)) if u is None else ("s_a", (("a", u, y, x),))
        x1 = lsub(x, (c,))
        if u is not None:
            if x == y:
                return ("r_a", (("r", x, x),))
            return ("k_a", (("a", u, x1, y), ("r", x1, x)))
        if x1 == y:
            return ("c_r", (("r", (c,), EPSILON), ("r", x1, x1)))
        return ("t_r", (("r", x, x1), ("r", x1, y)))

    def derivation_chain(self, fact: tuple) -> list[dict]:
        """Topologically ordered derivation trace ending at ``fact``.

        Each record is {"rule", "premises": [indices], "conclusion"}; premise
        indices point into the returned list.
        """
        order: list[tuple] = []
        index: dict[tuple, int] = {}

        def visit(f):
            if f in index:
                return index[f]
            rule, premises = self.derivation(f)
            idx_premises = [visit(p) for p in premises]
            index[f] = len(order)
            order.append((f, rule, idx_premises))
            return index[f]

        visit(fact)
        return [{"rule": rule, "premises": prem, "conclusion": fact_str(f)}
                for (f, rule, prem) in order]

    # -- saturation --------------------------------------------------------

    def _enter(self, x: Label, fact: tuple | None, fired: tuple | None = None) -> None:
        """Add x, brought in by ``fact`` (x on its left; None for eps), and
        by d_r its sublabels.  Each new label w is, for each distinct
        constant c of w, a c-extension of w - c, and c_r and c_a fall due on
        it, except ``fired``: the instance (u, y, k, w) whose conclusion
        brought x in, and which is joined already."""
        dom = self._dom
        if x in dom:
            return
        dom[x] = (("eps", ()) if fact is None else ("k_r", (fact,))
                  if fact[0] == "a" else ("t_r", (fact, ("r", fact[2], x))))
        roots, members, exts, due = self._root, self._members, self._ext, self._due
        new = [x] + [s for s in sublabels(x) if s not in dom]
        self._facts += len(new) * len(roots)
        for s in new:
            dom.setdefault(s, ("d_r", (("r", x, x),)))
            for u, root in roots.items():
                root[s] = s
                members[u][s] = (s,)
        kinds = tuple(roots) if self.erl_star else (None,)
        for w in new:
            for i, c in enumerate(w):
                if i and c == w[i - 1]:
                    continue
                y, k = w[:i] + w[i + 1:], (c,)
                for u in kinds:
                    r = roots[u][y]
                    w1 = exts[u].setdefault(r, {}).setdefault(k, w)
                    if w1 != w:
                        if (u, y, k, w1) != fired:
                            due(u, (y,), k, w1)
                    elif len(members[u][r]) > 1:
                        # y.k = w itself is no news: only y's classmates
                        due(u, [m for m in members[u][r] if m != y], k, w)

    def _union(self, u: str | None, a: Label, b: Label, fact: tuple, rule: str,
               premises: tuple) -> None:
        """Join a and b on a proof-forest edge in kind u (None: resources,
        which every agent kind contains).  A resource union that puts a
        constant c in eps's class stops here and leaves c in ``_found``."""
        edge = (fact, rule, premises)
        for v in (u,) if u is not None else self._root:
            members, up, root = self._members[v], self._up[v], self._root[v]
            ra, rb = sorted((root[a], root[b]), key=lambda r: -len(members[r]))
            if ra == rb:
                continue
            # re-root the smaller tree at its endpoint and hang it below the other
            x, link = (a, (b, edge)) if root[a] == rb else (b, (a, edge))
            while link is not None:
                up[x], link = link, up.get(x)
                if link is not None:
                    x, link = link[0], (x, link[1])
            eps = root[EPSILON] if v is None else None
            ma, mb = members[ra], members.pop(rb)
            root.update(dict.fromkeys(mb, ra))
            members[ra] = ma + mb
            self._facts += 2 * len(ma) * len(mb)
            if eps in (ra, rb):
                found = [x[0] for x in (mb if eps == ra else ma) if len(x) == 1]
                if found:
                    self._found = found
                    return
            # each class's k-extension is due for the other class's members
            ea, eb = self._ext[v].setdefault(ra, {}), self._ext[v].pop(rb, {})
            for k, w in ea.items():
                if k not in eb:
                    self._due(v, mb, k, w)
            for k, w in eb.items():
                w1 = ea.setdefault(k, w)
                self._due(v, ma if w1 == w else (lsub(w, k),), k, w1)

    def _due(self, u: str | None, xs, k: Label, w: Label) -> None:
        """Queue x.k ~[u] w for x in xs; drop unbuilt and flag those over budget."""
        room = self.max_card - len(k)
        for x in xs:
            if len(x) > room:
                self.budget_hit = True
            else:
                self._queue.append((u, x, k, w))

    def _saturate(self) -> None:
        """Fire due instances: x ~ y (or ~[u]) and w = y.c give x.c ~ w,
        for a constant c."""
        queue, roots = self._queue, self._root
        while queue and not self._found:
            u, x, k, w = queue.popleft()
            xk = lmul(x, k)
            root = roots[u]
            if xk not in root or root[xk] != root[w]:
                fact = _fact(u, xk, w)
                self._enter(xk, fact, (u, x, k, w))
                self._union(u, xk, w, fact, "c_r" if u is None else "c_a",
                            (_fact(u, x, lsub(w, k)), ("r", w, w)))
        if self._found:
            self._renormalize()

    def _renormalize(self) -> None:
        """Move the constants in ``_found`` to ``units``, keeping the steps
        that derive c ~ eps for each, and saturate again from ``base``."""
        steps = self._steps
        todo = [("r", (c,), EPSILON) for c in self._found]
        while todo:
            fact = todo.pop()
            if fact not in steps:
                steps[fact] = step = self.derivation(fact)
                todo.extend(step[1])
        self.units = self.units.union(self._found)
        self._found = []
        self._reset()
        for c in self.base:
            if not self._found:
                self._insert(fact_of(c))
        self._saturate()


def modal_source(phi: Modal, x: Label) -> Label:
    """The label ``phi``'s modality relates to its partners from ``x``: x
    itself for D and its dual, x.l with l = lam(term) otherwise."""
    return x if BASE_OF.get(phi.op, phi.op) == D else lmul(x, lam(phi.term))


def modal_partners(closure: Closure, phi: Modal, x: Label) -> list:
    """The labels that ``phi``'s modality reaches from ``x`` in the closure,
    where u is the agent and l = lam(term) the local resource of ``phi``:

        C and its dual:  y      with x.l ~[u] y
        D and its dual:  y.l    with x   ~[u] y.l
        E and its dual:  y.l    with x.l ~[u] y.l
    """
    source = modal_source(phi, x)
    if BASE_OF.get(phi.op, phi.op) == C:
        return closure.partners_agent(phi.agent, source)
    lam_t = lam(phi.term)
    return [lmul(y, lam_t)
            for y in closure.partners_agent(phi.agent, source, suffix=lam_t)]
