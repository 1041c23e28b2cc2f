"""Hintikka branches and countermodel extraction.

A saturated open branch satisfying the 29 Hintikka conditions induces a
finite model: worlds are representatives of the resource-equivalence
classes of the closure domain (together with the signature's resources),
composition is juxtaposition of class representatives where the product
stays in the domain, the agent relations and the valuation are read off
the stored constraints and the signed atoms.  Representatives prefer
lambda images: a class containing the image of a resource is named by that
resource, ties broken by name order with a warning (the calculus never
promises at most one image per class).

All quantifiers below range over the closure domain; the branch must be
saturated for the conditions to be meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checker import satisfies
from .closing import branch_witness, describe_closure_witness
from .errors import NotHintikka
from .labels import (Closure, EPSILON, label_key, label_str, lmul, lsub,
                     modal_partners)
from .models import Model, make_model, validate_model
from .syntax import (And, Atom, Implies, Modal, Not, Or, Signature, Star,
                     Unit, Wand, C, D, E, CDUAL, DDUAL, EDUAL, format_formula)


def _membership(formulas):
    t_map: dict = {}
    f_map: dict = {}
    for sf in formulas:
        target = t_map if sf.sign == "T" else f_map
        target.setdefault(sf.formula, set()).add(sf.label)
    return t_map, f_map


def is_hintikka(formulas, closure: Closure, sig: Signature):
    """None when every condition holds; otherwise (condition index, witness)
    for the first violated condition in numeric order."""
    t_map, f_map = _membership(formulas)
    dom = closure.domain()

    def has(side, phi, x):
        return x in (t_map if side == "T" else f_map).get(phi, ())

    # 1-4: openness
    witness = branch_witness(t_map, f_map, closure,
                             formula_key=lambda f: format_formula(f, sig.unit))
    if witness is not None:
        data = describe_closure_witness(witness, sig.unit)
        return (data.pop("condition"), data)

    # 5-29: saturation.  Collect everything and report the lowest-numbered
    # violated condition (deterministically, sets have no stable order).
    found = []
    for (sign, mapping) in (("T", t_map), ("F", f_map)):
        for phi, xs in mapping.items():
            for x in xs:
                cond = _saturation_condition(sign, phi, x, closure, has, dom, sig)
                if cond is not None:
                    idx, extra = cond
                    data = {"formula": format_formula(phi, sig.unit),
                            "label": label_str(x)}
                    data.update(extra)
                    found.append((idx, label_key(x), data))
    if found:
        idx, _, data = min(found, key=lambda f: (f[0], f[1], sorted(f[2].items())))
        return (idx, data)
    return None


# (modality, sign is T) -> (condition index, sign the partners need,
# whether every partner needs it)
_MODAL_CONDITIONS = {
    (C, True): (18, "T", True),
    (C, False): (19, "F", False),
    (D, True): (20, "T", False),
    (D, False): (21, "F", True),
    (E, True): (22, "T", True),
    (E, False): (23, "F", False),
    (CDUAL, True): (24, "T", False),
    (CDUAL, False): (25, "F", True),
    (DDUAL, True): (26, "T", True),
    (DDUAL, False): (27, "F", False),
    (EDUAL, True): (28, "T", False),
    (EDUAL, False): (29, "F", True),
}


def _saturation_condition(sign, phi, x, closure, has, dom, sig):
    """Check the saturation condition for one signed labelled formula;
    None when satisfied, else (condition index, witness details)."""
    t = sign == "T"
    if isinstance(phi, Unit):
        if t and not closure.has_res(x, EPSILON):
            return (5, {})
        return None
    if isinstance(phi, Not):
        if t and not has("F", phi.body, x):
            return (6, {})
        if not t and not has("T", phi.body, x):
            return (7, {})
        return None
    if isinstance(phi, And):
        if t and not (has("T", phi.left, x) and has("T", phi.right, x)):
            return (8, {})
        if not t and not (has("F", phi.left, x) or has("F", phi.right, x)):
            return (9, {})
        return None
    if isinstance(phi, Or):
        if t and not (has("T", phi.left, x) or has("T", phi.right, x)):
            return (10, {})
        if not t and not (has("F", phi.left, x) and has("F", phi.right, x)):
            return (11, {})
        return None
    if isinstance(phi, Implies):
        if t and not (has("F", phi.left, x) or has("T", phi.right, x)):
            return (12, {})
        if not t and not (has("T", phi.left, x) and has("F", phi.right, x)):
            return (13, {})
        return None
    if isinstance(phi, Star):
        splits = closure.splits(x)
        if t:
            if not any(has("T", phi.left, y) and has("T", phi.right, z)
                       for (y, z) in splits):
                return (14, {})
        else:
            for (y, z) in splits:
                if not (has("F", phi.left, y) or has("F", phi.right, z)):
                    return (15, {"split": [label_str(y), label_str(z)]})
        return None
    if isinstance(phi, Wand):
        options = [(lsub(w, x), w) for w in dom if lsub(w, x) is not None]
        if t:
            for (y, xy) in options:
                if not (has("F", phi.left, y) or has("T", phi.right, xy)):
                    return (16, {"extension": label_str(y)})
        else:
            if not any(has("T", phi.left, y) and has("F", phi.right, xy)
                       for (y, xy) in options):
                return (17, {})
        return None
    if isinstance(phi, Modal):
        idx, want_sign, universal = _MODAL_CONDITIONS[(phi.op, t)]
        options = modal_partners(closure, phi, x)
        if universal:
            for y in options:
                if not has(want_sign, phi.body, y):
                    return (idx, {"partner": label_str(y)})
        else:
            if not any(has(want_sign, phi.body, y) for y in options):
                return (idx, {"partners": [label_str(y) for y in options]})
        return None
    return None


# ---------------------------------------------------------------------------
# Equivalence classes and representatives


@dataclass
class EquivalenceIndex:
    classes: list                      # list of sorted label lists
    class_of: dict                     # label -> class position
    rep_label: dict                    # class position -> representative label
    world_name: dict                   # class position -> world name
    warnings: list = field(default_factory=list)

    def world_of(self, x) -> str:
        return self.world_name[self.class_of[x]]


def build_index(closure: Closure, sig: Signature) -> EquivalenceIndex:
    class_of, classes = closure.classes()
    rep_label: dict = {}
    world_name: dict = {}
    warnings: list = []
    lam_names = {}
    for r in sig.resources:
        lam_names[lam_of_resource(r, sig)] = r
    for pos, members in enumerate(classes):
        images = sorted(lam_names[m] for m in members if m in lam_names)
        if images:
            if len(images) > 1:
                warnings.append(
                    f"class of {label_str(members[0])} contains several resource "
                    f"images {images}; picking {images[0]}")
            rep_label[pos] = lam_of_resource(images[0], sig)
            world_name[pos] = images[0]
        else:
            rep_label[pos] = members[0]
            world_name[pos] = label_str(members[0])
    return EquivalenceIndex(classes, class_of, rep_label, world_name, warnings)


def lam_of_resource(r: str, sig: Signature):
    return EPSILON if r == sig.unit else (r,)


# ---------------------------------------------------------------------------
# Extraction


def extract_model(formulas, closure: Closure, sig: Signature,
                  designated=None) -> tuple[Model, str | None, list]:
    """Model induced by a Hintikka branch, the designated world, and any
    representative-selection warnings.  Precondition: is_hintikka is None."""
    verdict = is_hintikka(formulas, closure, sig)
    if verdict is not None:
        raise NotHintikka(f"condition {verdict[0]} violated: {verdict[1]}")
    return _extract(formulas, closure, sig, designated)


def _extract(formulas, closure, sig, designated):
    index = build_index(closure, sig)
    dom = set(closure.domain())
    reps = [index.world_name[pos] for pos in range(len(index.classes))]
    carrier = sorted(sig.resources)
    for name in reps:
        if name not in carrier:
            carrier.append(name)

    comp = {}
    triples = []
    for xpos, xmembers in enumerate(index.classes):
        for ypos, ymembers in enumerate(index.classes):
            value = None
            for xm in xmembers:
                for ym in ymembers:
                    prod = lmul(xm, ym)
                    if prod in dom:
                        value = index.class_of[prod]
                        break
                if value is not None:
                    break
            if value is None:
                continue
            key = (index.world_name[xpos], index.world_name[ypos])
            comp[key] = index.world_name[value]
            triples.append((key[0], key[1], index.world_name[value]))

    equiv: dict = {a: [] for a in sig.agents}
    for (u, x, y) in closure.agent_facts():
        equiv[u].append((index.world_of(x), index.world_of(y)))

    valuation: dict = {}
    for sf in formulas:
        if sf.sign == "T" and isinstance(sf.formula, Atom):
            valuation.setdefault(sf.formula.name, set()).add(index.world_of(sf.label))

    model = make_model(sig, carrier, triples, equiv,
                       {a: sorted(ws) for a, ws in valuation.items()})
    world = None
    if designated is not None and designated in index.class_of:
        world = index.world_of(designated)
    return model, world, index.warnings


def verify_extraction(model: Model, formulas, closure: Closure, sig: Signature,
                      logic: str = "erl"):
    """None when the extraction is coherent: the model validates and every
    signed formula of the branch is forced the right way at its world."""
    violations = validate_model(model, logic)
    if violations:
        return {"kind": "invalid-model", "violations": [str(v) for v in violations]}
    index = build_index(closure, sig)
    cache: dict = {}
    for sf in sorted(formulas, key=lambda s: (s.sign, label_key(s.label),
                                              format_formula(s.formula))):
        world = index.world_of(sf.label)
        want = sf.sign == "T"
        if satisfies(model, world, sf.formula, cache) != want:
            return {"kind": "forcing-failure", "formula": sf.text(sig.unit),
                    "world": world}
    return None
