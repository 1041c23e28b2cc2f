"""Resource labels and the constraint-closure engine.

A label is a finite multiset of constants: either the lambda-image of a
non-unit resource (written as the resource name) or a fresh constant
``c1, c2, ...`` introduced during proof search.  The empty label ``EPSILON``
is the image of the unit.

Constraints relate labels: ``x ~ y`` on resources, or ``x ~[u] y`` for an
agent ``u``.  The closure engine saturates a constraint set under the rules

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

Saturation is budgeted by a maximum label cardinality: rule instances whose
conclusion exceeds the budget are suppressed and a flag records the loss of
completeness.  Every stored fact carries a replayable derivation.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from .syntax import BASE_OF, C, D, Modal, Term

Label = tuple  # sorted tuple of constant names

EPSILON: Label = ()

_FRESH = re.compile(r"^c([0-9]+)$")


def fresh_constant_name(index: int) -> str:
    return f"c{index}"


def const_key(c: str):
    m = _FRESH.match(c)
    if m:
        return (0, int(m.group(1)), "")
    return (1, 0, c)


def label(*constants: str) -> Label:
    return tuple(sorted(constants, key=const_key))


def label_of(constants: Iterable[str]) -> Label:
    return tuple(sorted(constants, key=const_key))


def lam(term: Term) -> Label:
    """Lambda embedding of a resource term (unit factors are already gone)."""
    return label_of(term.parts)


def lmul(*labels: Label) -> Label:
    return tuple(sorted((c for l in labels for c in l), key=const_key))


def lcontains(x: Label, y: Label) -> bool:
    """Multiset inclusion y <= x (labels are sorted tuples)."""
    return lsub(x, y) is not None


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


def sublabels(x: Label) -> Iterator[Label]:
    """All sub-multisets of x, including EPSILON and x itself."""
    counts: dict[str, int] = {}
    for c in x:
        counts[c] = counts.get(c, 0) + 1
    consts = sorted(counts, key=const_key)
    for take in product(*(range(counts[c] + 1) for c in consts)):
        yield tuple(c for c, k in zip(consts, take) for _ in range(k))


def splits_of(x: Label) -> Iterator[tuple[Label, Label]]:
    """All ordered two-way multiset splits of x."""
    for left in sublabels(x):
        right = lsub(x, left)
        yield (left, right)


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


class Closure:
    """Budgeted forward saturation of a constraint set.

    Queries are sound for any budget; they are complete for every derivation
    whose intermediate labels stay within the cardinality budget.  When an
    instance is suppressed, ``budget_hit`` is set and the prover treats the
    branch as undecided rather than trusting saturation.
    """

    def __init__(self, agents: Iterable[str], erl_star: bool = False,
                 max_card: int | None = None, max_facts: int = 200_000):
        self.agents = tuple(sorted(agents))
        self.erl_star = erl_star
        self._max_card_param = max_card
        self.max_facts = max_facts
        self.base: list = []
        self.budget_hit = False
        self._facts: dict[tuple, tuple] = {}   # fact -> (rule, premises)
        self._res_left: dict[Label, set] = {}
        self._agent_left: dict[tuple, set] = {}
        self._refl: set = set()
        self._res_pairs: list = []             # non-derived order of res facts
        self._agent_pairs: list = []
        self._queue: deque = deque()
        self._max_base_card = 0
        self._push(("r", EPSILON, EPSILON), "eps", ())
        self._saturate()

    # -- construction -----------------------------------------------------

    @staticmethod
    def close(constraints: Iterable, agents: Iterable[str], erl_star: bool = False,
              max_card: int | None = None, max_facts: int = 200_000) -> "Closure":
        cl = Closure(agents, erl_star, max_card, max_facts)
        cl.add(*constraints)
        return cl

    def add(self, *constraints) -> None:
        """Add base constraints and resume saturation from the new facts."""
        old = self.effective_card
        for c in constraints:
            self.base.append(c)
            fact = fact_of(c)
            for side in fact_labels(fact):
                self._max_base_card = max(self._max_base_card, len(side))
            self._push(fact, "base", ())
        if self.effective_card > old:
            # A larger base label raised the budget: replay stored facts so
            # conclusions suppressed under the old budget can fire.
            for fact in list(self._facts):
                self._queue.append(fact)
        self._saturate()

    @property
    def effective_card(self) -> int:
        floor = self._max_card_param if self._max_card_param is not None \
            else 2 + self._max_base_card
        return max(floor, self._max_base_card)

    def clone(self) -> "Closure":
        other = Closure.__new__(Closure)
        other.agents = self.agents
        other.erl_star = self.erl_star
        other._max_card_param = self._max_card_param
        other.max_facts = self.max_facts
        other.base = list(self.base)
        other.budget_hit = self.budget_hit
        other._facts = dict(self._facts)
        other._res_left = {k: set(v) for k, v in self._res_left.items()}
        other._agent_left = {k: set(v) for k, v in self._agent_left.items()}
        other._refl = set(self._refl)
        other._res_pairs = list(self._res_pairs)
        other._agent_pairs = list(self._agent_pairs)
        other._queue = deque(self._queue)
        other._max_base_card = self._max_base_card
        return other

    # -- queries -----------------------------------------------------------

    def __len__(self):
        return len(self._facts)

    def has_res(self, x: Label, y: Label) -> bool:
        return ("r", x, y) in self._facts

    def has_agent(self, u: str, x: Label, y: Label) -> bool:
        return ("a", u, x, y) in self._facts

    def partners_res(self, x: Label) -> list:
        return sorted(self._res_left.get(x, ()), key=label_key)

    def partners_agent(self, u: str, x: Label, suffix: Label | None = None) -> list:
        """Without a suffix: all y with x ~[u] y.  With suffix w: all y such
        that x ~[u] y.w is stored (the y of the modal rule conditions)."""
        partners = self._agent_left.get((u, x), ())
        if suffix is None:
            return sorted(partners, key=label_key)
        out = []
        for p in partners:
            y = lsub(p, suffix)
            if y is not None:
                out.append(y)
        return sorted(set(out), key=label_key)

    def classes(self) -> tuple[dict, list]:
        """Partition of the domain under the resource relation: (label ->
        class position, classes as label_key-sorted member lists)."""
        class_of: dict = {}
        classes: list = []
        for x in self.domain():
            if x in class_of:
                continue
            members = sorted(set(self.partners_res(x)) | {x}, key=label_key)
            pos = len(classes)
            classes.append(members)
            for y in members:
                class_of[y] = pos
        return class_of, classes

    def splits(self, x: Label) -> list:
        """All ordered pairs (y, z) with x ~ y.z in the closure."""
        out = set()
        for w in self._res_left.get(x, ()):
            out.update(splits_of(w))
        return sorted(out, key=lambda p: (label_key(p[0]), label_key(p[1])))

    def domain(self) -> list:
        """All resource sublabels of stored facts (equivalently: the labels
        with a reflexive fact, once saturation has run)."""
        return sorted(self._refl, key=label_key)

    def in_domain(self, x: Label) -> bool:
        return x in self._refl

    def alphabet(self) -> list:
        consts = set()
        for fact in self._facts:
            for side in fact_labels(fact):
                consts.update(side)
        return sorted(consts, key=const_key)

    def facts(self) -> list:
        return sorted(self._facts)

    def res_facts(self) -> list:
        return sorted(self._res_pairs)

    def agent_facts(self) -> list:
        return sorted(self._agent_pairs)

    # -- derivations -------------------------------------------------------

    def derivation(self, fact: tuple) -> tuple:
        """(rule, premises) for a stored fact."""
        return self._facts[fact]

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
            rule, premises = self._facts[f]
            idx_premises = [visit(p) for p in premises]
            index[f] = len(order)
            order.append((f, rule, idx_premises))
            return index[f]

        visit(fact)
        return [{"rule": rule, "premises": prem, "conclusion": fact_str(f)}
                for (f, rule, prem) in order]

    def replay(self) -> list[tuple]:
        """Re-derive every stored fact from its recorded rule and premises;
        returns the list of facts whose derivations do not replay."""
        bad = []
        for fact, (rule, premises) in self._facts.items():
            if not _replay_step(self, rule, premises, fact):
                bad.append(fact)
        return bad

    # -- saturation --------------------------------------------------------

    def _push(self, fact: tuple, rule: str, premises: tuple) -> None:
        if fact in self._facts:
            return
        if rule not in ("base", "eps"):
            cap = self.effective_card
            if any(len(side) > cap for side in fact_labels(fact)):
                self.budget_hit = True
                return
            if len(self._facts) >= self.max_facts:
                self.budget_hit = True
                return
        self._facts[fact] = (rule, premises)
        if fact[0] == "r":
            _, x, y = fact
            self._res_left.setdefault(x, set()).add(y)
            self._res_pairs.append((x, y))
            if x == y:
                self._refl.add(x)
        else:
            _, u, x, y = fact
            self._agent_left.setdefault((u, x), set()).add(y)
            self._agent_pairs.append((u, x, y))
        self._queue.append(fact)

    def _saturate(self) -> None:
        while self._queue:
            fact = self._queue.popleft()
            if fact[0] == "r":
                self._fire_res(fact)
            else:
                self._fire_agent(fact)

    def _fire_res(self, fact: tuple) -> None:
        _, x, y = fact
        self._push(("r", y, x), "s_r", (fact,))
        # t_r with the new fact as either premise (store is symmetric)
        for z in list(self._res_left.get(y, ())):
            self._push(("r", x, z), "t_r", (fact, ("r", y, z)))
        for w in list(self._res_left.get(x, ())):
            # the flipped premise may not be stored yet; the instance then
            # fires when its s_r image is processed
            if ("r", w, x) in self._facts:
                self._push(("r", w, y), "t_r", (("r", w, x), fact))
        # c_r with the new fact as the x ~ y premise
        for w in list(self._refl):
            k = lsub(w, y)
            if k is not None:
                self._push(("r", lmul(x, k), w), "c_r", (fact, ("r", w, w)))
        # k_a with the new fact as the x ~ k premise
        for u in self.agents:
            for yy in list(self._agent_left.get((u, x), ())):
                self._push(("a", u, y, yy), "k_a", (("a", u, x, yy), fact))
        if x == y:
            for sub in sublabels(x):
                if sub != x:
                    self._push(("r", sub, sub), "d_r", (fact,))
            for v in self.agents:
                self._push(("a", v, x, x), "r_a", (fact,))
            # new reflexive fact can serve as the yk ~ yk premise
            for (a, b) in list(self._res_pairs):
                k = lsub(x, b)
                if k is not None:
                    self._push(("r", lmul(a, k), x), "c_r", (("r", a, b), fact))
            if self.erl_star:
                for (u, p, q) in list(self._agent_pairs):
                    k = lsub(x, q)
                    if k is not None:
                        self._push(("a", u, lmul(p, k), x), "c_a",
                                   (("a", u, p, q), fact))

    def _fire_agent(self, fact: tuple) -> None:
        _, u, x, y = fact
        self._push(("a", u, y, x), "s_a", (fact,))
        self._push(("r", x, x), "k_r", (fact,))
        for z in list(self._agent_left.get((u, y), ())):
            self._push(("a", u, x, z), "t_a", (fact, ("a", u, y, z)))
        for w in list(self._agent_left.get((u, x), ())):
            if ("a", u, w, x) in self._facts:
                self._push(("a", u, w, y), "t_a", (("a", u, w, x), fact))
        for k in list(self._res_left.get(x, ())):
            self._push(("a", u, k, y), "k_a", (fact, ("r", x, k)))
        if self.erl_star:
            for w in list(self._refl):
                k = lsub(w, y)
                if k is not None:
                    self._push(("a", u, lmul(x, k), w), "c_a", (fact, ("r", w, w)))


def modal_partners(closure: Closure, phi: Modal, x: Label) -> list:
    """The labels that ``phi``'s modality reaches from ``x`` in the closure,
    where u is the agent and l = lam(term) the local resource of ``phi``:

        C and its dual:  y      with x.l ~[u] y
        D and its dual:  y.l    with x   ~[u] y.l
        E and its dual:  y.l    with x.l ~[u] y.l
    """
    family = BASE_OF.get(phi.op, phi.op)
    lam_t = lam(phi.term)
    source = x if family == D else lmul(x, lam_t)
    if family == C:
        return closure.partners_agent(phi.agent, source)
    return [lmul(y, lam_t)
            for y in closure.partners_agent(phi.agent, source, suffix=lam_t)]


def _replay_step(cl: Closure, rule: str, premises: tuple, fact: tuple) -> bool:
    """Check that ``fact`` is exactly what ``rule`` concludes from ``premises``."""
    for p in premises:
        if p not in cl._facts:
            return False
    if rule == "base":
        return any(fact_of(c) == fact for c in cl.base)
    if rule == "eps":
        return fact == ("r", EPSILON, EPSILON)
    if rule == "s_r":
        (_, x, y), = premises
        return fact == ("r", y, x)
    if rule == "d_r":
        (_, w, w2), = premises
        return w == w2 and fact[0] == "r" and fact[1] == fact[2] \
            and lcontains(w, fact[1])
    if rule == "t_r":
        (_, x, y), (_, y2, z) = premises
        return y == y2 and fact == ("r", x, z)
    if rule == "c_r":
        (_, x, y), (_, w, w2) = premises
        if w != w2:
            return False
        k = lsub(w, y)
        return k is not None and fact == ("r", lmul(x, k), w)
    if rule == "k_r":
        (_, u, x, y), = premises
        return fact == ("r", x, x)
    if rule == "r_a":
        (_, x, x2), = premises
        return x == x2 and fact[0] == "a" and fact[2] == x and fact[3] == x \
            and fact[1] in cl.agents
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
        if w != w2 or not cl.erl_star:
            return False
        k = lsub(w, y)
        return k is not None and fact == ("a", u, lmul(x, k), w)
    return False


# ---------------------------------------------------------------------------
# Checks used by the test harness


def derived_rule_check(cl: Closure) -> list[tuple]:
    """Verify the five derivable rules on every stored fact; returns the
    violating instances (empty = all hold)."""
    bad = []
    for (x, y) in cl.res_facts():
        for sub in sublabels(x):          # p_l
            if not cl.has_res(sub, sub):
                bad.append(("p_l", (x, y), sub))
        for sub in sublabels(y):          # p_r
            if not cl.has_res(sub, sub):
                bad.append(("p_r", (x, y), sub))
    class_of, classes = cl.classes()
    linked: set = set()
    for (u, x, y) in cl.agent_facts():
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
