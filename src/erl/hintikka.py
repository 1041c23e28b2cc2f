"""Hintikka branches and countermodel extraction.

A saturated open branch satisfying the 29 Hintikka conditions induces a
finite model, read straight off the closure in world indices: its worlds
are the resource classes of the closure domain, together with the
signature's resources; x.y = w wherever w is a domain label with the split
x, y, checked and stored by ``syntax.composition_cells`` as for every other
model; each agent relation is the closure's agent partition, a union of
resource classes, closed by ``models._close_equiv``; the valuation comes
from the signed atoms.  A class
holding the image of a resource is named by that resource, ties broken by
name order, the unit first, with a warning (the calculus never promises at
most one image per class; a resource r with r ~ e has the unit's image in
normal form); any other class is named by its least label.

Conditions 1-4 say that the branch is open; condition i + 5 says that the
rule ``tableaux.RULES[i]`` is saturated on it.  Rule instances range over
the closure domain, so the branch must be saturated for the conditions to
be meaningful.  The witness reported for conditions 1-4 is the first one
``closing.branch_witness`` meets in the maps ``_membership`` builds:
formulas by their text, labels by ``label_key``.

``extract_model`` checks its branch first; ``prove`` calls it on each
saturated branch and runs no other check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .checker import satisfies
from .closing import branch_witness, describe_closure_witness
from .errors import ModelError, NotHintikka
from .labels import Closure, fact_of, label_key, label_str, splits_of
from .models import Frame, Model, _close_equiv, validate_model
from .syntax import Atom, Signature, composition_cells, format_formula
from .tableaux import FRESH_NEED, RULES, expand, instances, rule_for


def _membership(formulas, unit: str):
    """The branch's T and F maps, formula -> labels, in the order the
    closing scan tries them: T formulas by their text (the scan looks F
    formulas up), and each formula's labels as a list sorted by
    ``label_key``."""
    t_map: dict = {}
    f_map: dict = {}
    for sf in formulas:
        (t_map if sf.sign == "T" else f_map).setdefault(sf.formula, []).append(sf.label)
    for labels in [*t_map.values(), *f_map.values()]:
        labels.sort(key=label_key)
    order = sorted(t_map, key=lambda phi: format_formula(phi, unit))
    return {phi: t_map[phi] for phi in order}, f_map


def is_hintikka(formulas, closure: Closure, sig: Signature):
    """None when every condition holds; otherwise (condition index, witness)
    for the first violated condition in numeric order."""
    formulas = set(formulas)
    t_map, f_map = _membership(formulas, sig.unit)

    # 1-4: openness
    witness = branch_witness(t_map, f_map, closure)
    if witness is not None:
        data = describe_closure_witness(witness, sig.unit)
        return (data.pop("condition"), data)

    # 5-29: saturation, condition 5 + i for rule RULES[i].  Collect everything
    # and report the lowest-numbered violated condition (deterministically,
    # sets have no stable order).
    # labels compare in normal form, as in the closure
    nf = closure.nf
    normal_forms = {(f.sign, f.formula, nf(f.label)) for f in formulas}

    def on_branch(f):
        return (f.sign, f.formula, nf(f.label)) in normal_forms
    found = []
    for sf in formulas:
        rule = rule_for(sf)
        if rule is None:
            continue
        unmet = _unmet_instances(rule, sf, on_branch, closure)
        if unmet is not None:
            data = {"formula": format_formula(sf.formula, sig.unit),
                    "label": label_str(sf.label), "rule": rule,
                    "instances": [[label_str(y) for y in inst] for inst in unmet]}
            found.append((RULES.index(rule) + 5, label_key(sf.label), data))
    if found:
        idx, _, data = min(found, key=lambda f: (f[0], f[1], sorted(f[2].items())))
        return (idx, data)
    return None


def _unmet_instances(rule, sf, on_branch, closure):
    """None when the rule of ``sf`` is saturated, else the instances that
    fail it.  An instance is met when some child of the rule applied with it
    is on the branch: its formulas pass ``on_branch``, its constraints are in
    the closure.  A rule that introduces fresh constants needs one met
    instance; any other rule needs every instance met."""
    def met(inst):
        return any(all(map(on_branch, sfs))
                   and all(fact_of(c) in closure for c in constraints)
                   for (sfs, constraints) in expand(rule, sf, inst))

    insts = instances(sf, closure)
    if rule in FRESH_NEED:
        return None if any(map(met, insts)) else insts
    unmet = [inst for inst in insts if not met(inst)]
    return unmet or None


# ---------------------------------------------------------------------------
# Equivalence classes and representatives


@dataclass
class EquivalenceIndex:
    carrier: tuple                     # world names
    position: dict                     # normal-form domain label -> carrier index
    nf: Callable                       # the closure's label normal form
    warnings: list = field(default_factory=list)

    def world_of(self, x) -> str:
        return self.carrier[self.position[self.nf(x)]]


def build_index(closure: Closure, sig: Signature) -> EquivalenceIndex:
    """The carrier of the model a branch induces: the signature's resources
    in name order, then one world per other resource class of the closure
    domain, in ``Closure.classes`` order, named by its least member.  A
    class holding the image of a resource is that resource's world; when it
    holds several, the unit wins, then the least name, with a warning."""
    class_of, classes = closure.classes()
    images: dict = {}                   # class position -> resources imaged there
    for r in sorted(sig.resources, key=lambda r: (r != sig.unit, r)):
        pos = class_of.get(closure.nf(() if r == sig.unit else (r,)))
        if pos is not None:
            images.setdefault(pos, []).append(r)
    carrier = sorted(sig.resources)
    position: dict = {}
    warnings: list = []
    for pos, members in enumerate(classes):
        names = images.get(pos)
        if names is None:
            world = len(carrier)
            carrier.append(label_str(members[0]))
        else:
            if len(names) > 1:
                warnings.append(
                    f"class of {label_str(members[0])} contains several resource "
                    f"images {names}; picking {names[0]}")
            world = carrier.index(names[0])
        position.update(dict.fromkeys(members, world))
    return EquivalenceIndex(tuple(carrier), position, closure.nf, warnings)


# ---------------------------------------------------------------------------
# Extraction


def extract_model(formulas, closure: Closure, sig: Signature,
                  designated=None) -> tuple[Model, str | None, EquivalenceIndex]:
    """Model induced by a Hintikka branch, the designated world, and the
    index of the closure's classes it was built from (its ``warnings`` are
    the representative-selection warnings).  The branch is checked first, and
    ``prove`` relies on this as its one Hintikka check of a saturated
    branch: a failed check raises NotHintikka with the violated condition.
    A closure whose products do not give a composition raises ModelError."""
    verdict = is_hintikka(formulas, closure, sig)
    if verdict is not None:
        raise NotHintikka(*verdict)
    index = build_index(closure, sig)
    carrier, position = index.carrier, index.position
    n = len(carrier)

    # y.z = w for each split of each domain label w
    comp = composition_cells(
        ((position[y], position[z], k) for w, k in position.items()
         for y, z in splits_of(w)), position[()], ModelError, carrier.__getitem__)

    # an agent class is a union of resource classes, so one label per world
    # gives its partners; a world no label reaches is alone in its class
    label_at = {i: x for x, i in position.items()}
    classmask = {u: _close_equiv(n, ((i, position[y]) for i, x in label_at.items()
                                     for y in closure.partners_agent(u, x)))
                 for u in sorted(sig.agents)}
    equiv_pairs = {u: [(i, j) for i in range(n) for j in range(i + 1, n)
                       if masks[i] >> j & 1] for u, masks in classmask.items()}

    valuation: dict = {}
    for sf in formulas:
        if sf.sign == "T" and isinstance(sf.formula, Atom):
            name = sf.formula.name
            valuation[name] = valuation.get(name, 0) | 1 << position[closure.nf(sf.label)]

    model = Model(Frame(sig, carrier, comp, classmask, equiv_pairs), valuation)
    world = None
    if designated is not None and closure.nf(designated) in position:
        world = index.world_of(designated)
    return model, world, index


def verify_extraction(model: Model, formulas, index: EquivalenceIndex,
                      logic: str = "erl"):
    """None when the extraction is coherent: the model validates and every
    signed formula of the branch is forced the right way at its world, read
    off ``index``, the branch closure's index from ``extract_model``."""
    violations = validate_model(model, logic)
    if violations:
        return {"kind": "invalid-model", "violations": [str(v) for v in violations]}
    for sf in sorted(formulas, key=lambda s: (s.sign, label_key(s.label),
                                              format_formula(s.formula))):
        world = index.world_of(sf.label)
        want = sf.sign == "T"
        if satisfies(model, world, sf.formula) != want:
            return {"kind": "forcing-failure", "formula": sf.text(model.sig.unit),
                    "world": world}
    return None
