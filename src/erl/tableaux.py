"""Labelled tableaux proof search.

A branch (a constrained set of statements) holds signed labelled formulas
together with a constraint set and its saturation.  The calculus has 25
rules: 13 propositional/multiplicative and 12 modal ones.  Eight rules
introduce fresh label constants; eight rules carry a side condition on the
constraint closure and are (re-)instantiated whenever the closure grows.
Each rule instance enters a branch's queue at most once, so it is applied
to the branch at most once.

The search runs in one tableau and may introduce at most ``max_constants``
fresh constants beyond the root's; the outcome's ``depth`` is the most it
asked for, capped there.  A fair scheduler fires non-branching
constant-free rules first, then additive branching rules, then
constant-introducing rules, and multiplicative branching rules last, FIFO
within each class except that a branching class prefers an instance whose
children all close immediately, and failing that the first one with the
most closing children.  Proofs start on a shared root closure
(``root_closure``), copied on a branch's first write.  A branch closes by
one of four conditions; a saturated open branch with a trustworthy
(budget-clean) closure yields the model it induces, and refutes when that
model validates and falsifies the root.  Once a proof is out of reach,
branches that can no longer refute are pruned (see ``prove``).  Outcomes
are three-valued: proved, refuted, or unknown with diagnostics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, NamedTuple

from .closing import (F, T, SignedFormula, branch_witness, closing_witness,
                      describe_closure_witness)
from .config import RunConfig, is_star
from .labels import (AgentEq, Closure, EPSILON, ResEq, fact_str, label,
                     label_str, lam, lmul, lsub, fresh_constant_name,
                     modal_partners, modal_source)
from .models import model_to_json
from .syntax import (BASE_OF, And, Atom, Bot, Formula, Implies, Modal, Not, Or,
                     Signature, Star, Top, Unit, Wand, C, D, E, CDUAL, DDUAL,
                     EDUAL, UNIVERSAL)


class RuleInstance(NamedTuple):
    rule: str
    target: SignedFormula
    inst: tuple = ()


# rule name by (sign, connective tag)
_TAG = {Unit: "I", Not: "not", And: "and", Or: "or", Implies: "imp",
        Star: "star", Wand: "wand"}
_MODAL_TAG = {C: "C", D: "D", E: "E", CDUAL: "Cd", DDUAL: "Dd", EDUAL: "Ed"}

# A modal rule keeps the sign of the body.  It is universal, with one
# instance per partner label the closure gives, when a box-like modality (C,
# E or the dual of D) is signed T or its dual is signed F; otherwise it
# introduces one fresh constant.  This is Fitting's nu/pi uniform notation.
_MODAL_RULES = {f"{sign}_{tag}": (sign == T) == (op in UNIVERSAL)
                for op, tag in _MODAL_TAG.items() for sign in (T, F)}

# The 25 rules in the order of their Hintikka conditions: rule RULES[i] is
# saturated on a branch exactly when condition i + 5 holds.
RULES = ("T_I", "T_not", "F_not", "T_and", "F_and", "T_or", "F_or", "T_imp",
         "F_imp", "T_star", "F_star", "T_wand", "F_wand") + tuple(_MODAL_RULES)
CONDITION_RULES = frozenset(
    ["F_star", "T_wand"] + [r for r, universal in _MODAL_RULES.items() if universal])
FRESH_NEED = {"T_star": 2, "F_wand": 1,
              **{r: 1 for r, universal in _MODAL_RULES.items() if not universal}}


def rule_for(sf: SignedFormula) -> str | None:
    phi = sf.formula
    if isinstance(phi, (Atom, Top, Bot)):
        return None
    if isinstance(phi, Unit):
        return "T_I" if sf.sign == T else None
    if isinstance(phi, Modal):
        return f"{sf.sign}_{_MODAL_TAG[phi.op]}"
    return f"{sf.sign}_{_TAG[type(phi)]}"


# Scheduling classes.  Non-branching constant-free rules go first and the
# additive branching rules next.  The multiplicative branching rules are
# deferred until after the constant-introducing ones: their instances
# quantify over the closure domain, which the delta rules populate, and
# firing them on a skeletal domain duplicates all later work per split.
_PRIORITY = dict.fromkeys(RULES, 0)
_PRIORITY.update(dict.fromkeys(["F_and", "T_or", "T_imp"], 1))
_PRIORITY.update(dict.fromkeys(FRESH_NEED, 2))
_PRIORITY.update(dict.fromkeys(["F_star", "T_wand"], 3))

_BRANCHING_CLASSES = (1, 3)
_N_CLASSES = 4


def instances(sf: SignedFormula, closure: Closure) -> list[tuple]:
    """The label tuples the rule of ``sf`` can be instantiated with: the
    splits (y, z) of x for a star, the (y,) with x.y in the domain for a
    wand, the modal partners (y,) for a modality, and the one empty
    instance () otherwise.  A condition-bearing rule fires once per
    instance; a fresh-constant rule is saturated when one instance already
    has its children on the branch."""
    phi, x = sf.formula, sf.label
    if isinstance(phi, Star):
        return closure.splits(x)
    if isinstance(phi, Wand):
        x = closure.nf(x)
        return [(y,) for y in (lsub(w, x) for w in closure.domain())
                if y is not None]
    if isinstance(phi, Modal):
        return [(y,) for y in modal_partners(closure, phi, x)]
    return [()]


def expand(rule: str, sf: SignedFormula, inst: tuple, fresh=()):
    """Children produced by a rule application: a list of
    (new signed formulas, new constraints) pairs.  A rule that introduces
    constants takes its labels from ``fresh`` when that is given and from
    ``inst``, one of ``instances``, otherwise."""
    phi, x = sf.formula, sf.label

    def sfm(sign, f, lab):
        return SignedFormula(sign, f, lab)

    if fresh:
        inst = tuple(label(c) for c in fresh)
        if isinstance(phi, Modal) and BASE_OF.get(phi.op, phi.op) != C:
            # D and E partners carry the local resource
            inst = (lmul(inst[0], lam(phi.term)),)
    if rule == "T_I":
        return [([], [ResEq(x, EPSILON)])]
    if rule == "T_not":
        return [([sfm(F, phi.body, x)], [])]
    if rule == "F_not":
        return [([sfm(T, phi.body, x)], [])]
    if rule == "T_and":
        return [([sfm(T, phi.left, x), sfm(T, phi.right, x)], [])]
    if rule == "F_and":
        return [([sfm(F, phi.left, x)], []), ([sfm(F, phi.right, x)], [])]
    if rule == "T_or":
        return [([sfm(T, phi.left, x)], []), ([sfm(T, phi.right, x)], [])]
    if rule == "F_or":
        return [([sfm(F, phi.left, x), sfm(F, phi.right, x)], [])]
    if rule == "T_imp":
        return [([sfm(F, phi.left, x)], []), ([sfm(T, phi.right, x)], [])]
    if rule == "F_imp":
        return [([sfm(T, phi.left, x), sfm(F, phi.right, x)], [])]
    if rule == "T_star":
        y, z = inst
        return [([sfm(T, phi.left, y), sfm(T, phi.right, z)],
                 [ResEq(x, lmul(y, z))])]
    if rule == "F_star":
        y, z = inst
        return [([sfm(F, phi.left, y)], []), ([sfm(F, phi.right, z)], [])]
    if rule == "T_wand":
        (y,) = inst
        return [([sfm(F, phi.left, y)], []), ([sfm(T, phi.right, lmul(x, y))], [])]
    if rule == "F_wand":
        (y,) = inst
        xy = lmul(x, y)
        return [([sfm(T, phi.left, y), sfm(F, phi.right, xy)], [ResEq(xy, xy)])]
    if rule in CONDITION_RULES:     # universal modal rules
        (y,) = inst
        return [([sfm(sf.sign, phi.body, y)], [])]
    if rule in FRESH_NEED:          # existential modal rules
        (y,) = inst
        return [([sfm(sf.sign, phi.body, y)],
                 [AgentEq(phi.agent, modal_source(phi, x), y)])]
    raise ValueError(f"unknown rule {rule}")


def condition_fact(sf: SignedFormula, inst: tuple):
    """The closure fact licensing an instance of a condition-bearing rule."""
    phi, x = sf.formula, sf.label
    if isinstance(phi, Star):
        return ("r", x, lmul(*inst))
    if isinstance(phi, Wand):
        xy = lmul(x, inst[0])
        return ("r", xy, xy)
    return ("a", phi.agent, modal_source(phi, x), inst[0])


# ---------------------------------------------------------------------------
# Branches


class Branch:
    """One CSS: signed formulas, the closure of its constraints, scheduler
    state.  A clone shares its parent's closure (see ``Tableau``)."""

    def __init__(self, bid: int, closure: Closure):
        self.id = bid
        # formula -> its labels, in insertion order: clash partners are
        # tried in that order, the same in every process
        self.t_labels: dict[Formula, dict] = {}
        self.f_labels: dict[Formula, dict] = {}
        self.closure = closure
        self.queues = tuple(deque() for _ in range(_N_CLASSES))
        self.seen: set = set()             # every instance ever queued here
        self.cond_sfs: list[tuple[str, SignedFormula]] = []
        self.closed: tuple | None = None
        self.starved = False

    @property
    def formulas(self) -> set[SignedFormula]:
        return {SignedFormula(sign, phi, x)
                for sign, store in ((T, self.t_labels), (F, self.f_labels))
                for phi, xs in store.items() for x in xs}

    # -- growth --------------------------------------------------------------

    def add_signed(self, sf: SignedFormula) -> None:
        labels = (self.t_labels if sf.sign == T else self.f_labels).setdefault(
            sf.formula, {})
        if sf.label in labels:
            return
        assert self.closure.in_domain(sf.label), "label outside closure domain"
        labels[sf.label] = None
        if self.closed is None:
            self.closed = closing_witness(sf.sign, sf.formula, sf.label,
                                          self.t_labels, self.f_labels, self.closure)
        rule = rule_for(sf)
        if rule in CONDITION_RULES:
            self.cond_sfs.append((rule, sf))
            self._enqueue_condition(rule, sf)
        elif rule is not None:
            self._enqueue_batch([RuleInstance(rule, sf)])

    def add_constraints(self, constraints: Iterable) -> None:
        cs = list(constraints)
        if not cs:
            return
        if self.closure.shared:
            self.closure = self.closure.clone()
        before = len(self.closure), self.closure.units
        self.closure.add(*cs)
        if (len(self.closure), self.closure.units) != before:
            for rule, sf in self.cond_sfs:
                self._enqueue_condition(rule, sf)
            if self.closed is None:
                self.closed = branch_witness(self.t_labels, self.f_labels,
                                             self.closure)

    def _enqueue_condition(self, rule: str, sf: SignedFormula) -> None:
        self._enqueue_batch([RuleInstance(rule, sf, i)
                             for i in instances(sf, self.closure)])

    def _enqueue_batch(self, instances: list) -> None:
        for ri in instances:
            if ri not in self.seen:
                self.seen.add(ri)
                self.queues[_PRIORITY[ri.rule]].append(ri)

    # -- scheduler -------------------------------------------------------------

    def has_work(self) -> bool:
        return any(self.queues)

    def pop(self) -> RuleInstance:
        """The next instance of the first class with work; call only when
        ``has_work``."""
        for cls, q in enumerate(self.queues):
            if q:
                return self._pop_branching(q) if cls in _BRANCHING_CLASSES else q.popleft()

    def _pop_branching(self, q) -> RuleInstance:
        """Prefer the instance whose children close immediately (all of them,
        else as many as possible); fall back to FIFO order."""
        best_i, best_score = 0, -1
        for i, ri in enumerate(q):
            spec = expand(ri.rule, ri.target, ri.inst)
            score = sum(1 for (sfs, _) in spec
                        if any(self._would_close(sf) for sf in sfs))
            if score == len(spec):
                best_i = i
                break
            if score > best_score:
                best_i, best_score = i, score
        ri = q[best_i]
        del q[best_i]
        return ri

    def _would_close(self, sf: SignedFormula) -> bool:
        return closing_witness(sf.sign, sf.formula, sf.label, self.t_labels,
                               self.f_labels, self.closure) is not None

    def clone(self, bid: int) -> "Branch":
        other = Branch.__new__(Branch)
        other.__dict__.update(self.__dict__)
        other.id = bid
        other.t_labels = {k: dict(v) for k, v in self.t_labels.items()}
        other.f_labels = {k: dict(v) for k, v in self.f_labels.items()}
        other.queues = tuple(deque(q) for q in self.queues)
        other.seen = set(self.seen)
        other.cond_sfs = list(self.cond_sfs)
        return other


# ---------------------------------------------------------------------------
# Tableau


@dataclass
class ProofOutcome:
    verdict: str                      # "proved" | "refuted" | "unknown"
    applications: int = 0
    depth: int = 0
    trace: list = field(default_factory=list)
    closed_branches: list = field(default_factory=list)
    countermodel: object = None
    world: str | None = None
    branch: dict | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def proved(self):
        return self.verdict == "proved"

    @property
    def refuted(self):
        return self.verdict == "refuted"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "applications": self.applications,
               "depth": self.depth, "trace": self.trace,
               "closed_branches": self.closed_branches,
               "diagnostics": self.diagnostics}
        if self.countermodel is not None:
            out["countermodel"] = model_to_json(self.countermodel, self.world)
            out["world"] = self.world
            out["branch"] = self.branch
        return out


C1 = label(fresh_constant_name(1))     # the root label
_roots: dict = {}       # (signature, logic, closure budget) -> root closure


def root_closure(sig: Signature, config: RunConfig) -> Closure:
    """The closure of c1 ~ c1 and the signature's products, which hold in
    every model, so at every root: built once, then shared read-only."""
    key = (sig, config.logic, config.closure_budget)
    closure = _roots.get(key)
    if closure is None:
        closure = Closure(sorted(sig.agents), erl_star=is_star(config.logic),
                          max_card=config.closure_budget)
        closure.add(ResEq(C1, C1), *[
            ResEq(label(r, s), EPSILON if t == sig.unit else label(t))
            for (r, s), t in sorted(sig.composition.items())])
        closure.shared = True
        _roots[key] = closure
    return closure


class Tableau:
    """A proof search for ``phi`` from ``F phi : c1``: a stack of the open
    branches, the leftmost on top, and a (state, starved, budget_hit) leaf
    per finished open branch; closed ones are logged and dropped.  Each
    closure's label budget is ``config.closure_budget`` (see ``Closure``).
    Siblings share one closure, and a branch's closure is copied before a
    step adds constraints to it exactly when another open branch on the
    stack holds it."""

    def __init__(self, phi: Formula, sig: Signature, config: RunConfig = RunConfig()):
        self.sig = sig
        self.logic = config.logic
        self.phi = phi
        self.depth = 0                  # the most fresh constants beyond c1 asked for
        self.used_constants = 1         # c1 is consumed by the root
        self.branch_ids = count()
        self.trace: list = []
        self.closed_log: list = []
        self.applications = 0
        root = Branch(next(self.branch_ids), root_closure(sig, config))
        root.add_signed(SignedFormula(F, phi, C1))
        self.branches: list[Branch] = [root] if root.closed is None else []
        self.leaves: list[tuple[str, bool, bool]] = []

    def fresh_constant(self) -> str:
        """Allocate the next label constant (never reused, never a lambda)."""
        self.used_constants += 1
        return fresh_constant_name(self.used_constants)

    def _apply(self, ri: RuleInstance) -> list[int]:
        """Apply ``ri``, just popped off the top branch, and put that branch's
        open children in its place; returns the children's ids."""
        b = self.branches.pop()
        fresh = [self.fresh_constant() for _ in range(FRESH_NEED.get(ri.rule, 0))]
        children_spec = expand(ri.rule, ri.target, ri.inst, fresh)
        # only single-child rules add constraints: copy the closure when an
        # open branch still holds it
        if children_spec[0][1] and any(o.closure is b.closure for o in self.branches):
            b.closure = b.closure.clone()
        # the leftmost child continues the parent branch; clones share its closure
        children = [b] + [b.clone(next(self.branch_ids)) for _ in children_spec[1:]]
        added = {}
        entry = {
            "step": self.applications,
            "branch": b.id,
            "rule": ri.rule,
            "principal": ri.target.text(self.sig.unit),
            "instantiation": [label_str(x) for x in ri.inst],
            "fresh": fresh,
        }
        if ri.rule in CONDITION_RULES:
            fact = condition_fact(ri.target, ri.inst)
            entry["condition_fact"] = fact_str(fact)
            entry["condition_derivation"] = b.closure.derivation_chain(fact)
        for child, (sfs, constraints) in zip(children, children_spec):
            child.add_constraints(constraints)
            for sf in sfs:
                child.add_signed(sf)
            added[str(child.id)] = {
                "formulas": [sf.text(self.sig.unit) for sf in sfs],
                "constraints": [str(c) for c in constraints],
            }
        entry["children"] = [c.id for c in children]
        entry["added"] = added
        self.trace.append(entry)
        self.applications += 1
        for child in children:
            if child.closed is not None:
                rec = {"branch": child.id,
                       "witness": describe_closure_witness(child.closed, self.sig.unit)}
                if child.closed[0] == "clash":
                    _, _, x, y = child.closed
                    rec["fact_derivation"] = child.closure.derivation_chain(("r", x, y))
                elif child.closed[0] == "F_I":
                    x = child.closed[1].label
                    rec["fact_derivation"] = child.closure.derivation_chain(("r", x, EPSILON))
                self.closed_log.append(rec)
        self.branches.extend(c for c in reversed(children) if c.closed is None)
        return [c.id for c in children]


# ---------------------------------------------------------------------------
# Proof search


def prove(phi: Formula, sig: Signature, config: RunConfig = RunConfig()) -> ProofOutcome:
    """Three-valued proof search: one tableau, fair scheduling, verified
    countermodels on refutation.

    An instance that would take the fresh constants beyond c1 past
    ``max_constants`` starves its branch.  The outcome's ``depth`` is the
    most constants any popped instance asked for, at most ``max_constants``
    and at least 1 when that allows.  The run is deterministic, and a run capped lower is
    a prefix of it up to its first unaffordable instance, so this gives
    what iterative deepening by restarts at each depth would.

    The search expands the top branch of the stack, the leftmost open one.
    Once an open branch with no work left did not refute, it stays open, so
    the formula cannot be proved.  From then on an open branch that is
    starved or has hit its closure budget is pruned, never expanded again.
    Expanding it might still have refuted, since a constant joining the
    unit class can clear its closure's budget flag, but pruning only gives
    up on a branch and so keeps every verdict sound.  The search goes on with the other
    branches, for a refutation or ``unknown``."""
    t = Tableau(phi, sig, config)
    t.depth = min(1, config.max_constants)
    while t.branches:
        b = t.branches[-1]
        if not b.has_work():
            state = _saturated(t, b)
            if not isinstance(state, str):
                return state
        elif t.leaves and (b.starved or b.closure.budget_hit):
            state = "pruned"
        elif t.applications >= config.max_steps:
            break
        else:
            ri = b.pop()
            need = t.used_constants - 1 + FRESH_NEED.get(ri.rule, 0)
            t.depth = max(t.depth, min(need, config.max_constants))
            if need > config.max_constants:
                b.starved = True
            else:
                t._apply(ri)
            continue
        t.branches.pop()
        t.leaves.append((state, b.starved, b.closure.budget_hit))
    return _aggregate(t)


def _saturated(t: Tableau, b: Branch) -> ProofOutcome | str:
    """Extract the model of a branch with no pending work and refute with it
    when it validates and falsifies the root ``F phi : c1``; otherwise return
    the branch's state.  That is all a refutation needs to be sound; the
    Hintikka lemma, that the model forces the whole branch, is a theorem
    about the construction and is tested, not checked here."""
    if b.starved:
        return "starved"
    if b.closure.budget_hit:
        return "closure-budget"
    from . import hintikka      # not at module level: hintikka imports this module
    formulas = b.formulas
    model, world, index = hintikka.extract_model(formulas, b.closure, t.sig,
                                                 designated=C1)
    failure = hintikka.verify_extraction(model, [SignedFormula(F, t.phi, C1)],
                                         index, logic=t.logic)
    if failure is not None:
        return f"extraction-failed: {failure}"
    branch = {"formulas": sorted(sf.text(t.sig.unit) for sf in formulas),
              "constraints": [str(c) for c in b.closure.base], "closed": None}
    return _outcome(t, "refuted", countermodel=model, world=world, branch=branch,
                    diagnostics={"warnings": list(index.warnings)} if index.warnings else {})


def _outcome(t: Tableau, verdict: str, **fields) -> ProofOutcome:
    return ProofOutcome(verdict, applications=t.applications, depth=t.depth,
                        trace=t.trace, closed_branches=t.closed_log, **fields)


def _aggregate(t: Tableau) -> ProofOutcome:
    leaves = t.leaves + [("open", b.starved, b.closure.budget_hit)
                         for b in t.branches]
    if not leaves:
        return _outcome(t, "proved")
    states, starved, budget_hit = zip(*leaves)
    diagnostics = {
        "open_branches": len(leaves),
        "branch_states": sorted(set(states)),
        "starved": any(starved),
        "closure_budget_hit": any(budget_hit),
    }
    if t.branches:
        diagnostics["steps_exhausted"] = True
    return _outcome(t, "unknown", diagnostics=diagnostics)
