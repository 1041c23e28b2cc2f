"""The satisfaction relation over finite models.

Three evaluation routes are provided on purpose:

* ``truth_set`` computes, bottom-up and with world sets as bitmasks, the
  set of worlds satisfying each subformula.  Every modality reads its
  partner worlds off ``Model.partners``, which a modality and its dual
  share: a universal modality (``syntax.UNIVERSAL``) holds where all its
  partners satisfy the body, the other three where some partner does.
  This is the bulk evaluator.
* ``satisfies`` answers a single (world, formula) query through
  ``truth_set``.
* ``satisfies_direct`` evaluates dual modalities by their direct clauses
  with definedness guards placed conjunctively (so that they agree with the
  not-base-not reading even where composition is undefined).  It exists as
  an independent cross-check and is deliberately naive.

``find_countermodel`` is the brute-force oracle: it walks the model
enumeration stream and returns the first model and world falsifying the
formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import ERL
from .errors import ErlError
from .models import Model, enumerate_models
from .syntax import (And, Atom, Bot, Formula, Implies, Modal, Not, Or, Star,
                     Top, Unit, Wand, BASE_OF, C, D, E, UNIVERSAL,
                     format_formula)


class WorldNotInCarrier(ErlError):
    def __init__(self, world):
        super().__init__(f"world {world!r} is not in the carrier")


# ---------------------------------------------------------------------------
# Bitmask evaluation


def truth_set(m: Model, phi: Formula, cache: dict | None = None) -> int:
    """Bitmask of worlds of ``m`` satisfying ``phi``."""
    if cache is None:
        cache = {}
    return _ts(m, phi, cache)


def _ts(m: Model, phi: Formula, cache: dict) -> int:
    key = id(phi)
    hit = cache.get(key)
    if hit is not None:
        return hit
    full = m.full_mask
    if isinstance(phi, Atom):
        out = m.atom_mask(phi.name)
    elif isinstance(phi, Top):
        out = full
    elif isinstance(phi, Bot):
        out = 0
    elif isinstance(phi, Unit):
        out = 1 << m.unit_i
    elif isinstance(phi, Not):
        out = full & ~_ts(m, phi.body, cache)
    elif isinstance(phi, And):
        out = _ts(m, phi.left, cache) & _ts(m, phi.right, cache)
    elif isinstance(phi, Or):
        out = _ts(m, phi.left, cache) | _ts(m, phi.right, cache)
    elif isinstance(phi, Implies):
        out = (full & ~_ts(m, phi.left, cache)) | _ts(m, phi.right, cache)
    elif isinstance(phi, Star):
        sl, sr = _ts(m, phi.left, cache), _ts(m, phi.right, cache)
        out = 0
        for r in range(m.n):
            for (i, j) in m.splits[r]:
                if sl >> i & 1 and sr >> j & 1:
                    out |= 1 << r
                    break
    elif isinstance(phi, Wand):
        sl, sr = _ts(m, phi.left, cache), _ts(m, phi.right, cache)
        out = 0
        for r in range(m.n):
            ok = True
            for (j, k) in m.extensions[r]:
                if sl >> j & 1 and not sr >> k & 1:
                    ok = False
                    break
            if ok:
                out |= 1 << r
    elif isinstance(phi, Modal):
        body = _ts(m, phi.body, cache)
        out = 0
        if phi.op in UNIVERSAL:
            failing = ~body
            for r, partners in enumerate(m.partners(phi)):
                if not partners & failing:
                    out |= 1 << r
        else:
            for r, partners in enumerate(m.partners(phi)):
                if partners & body:
                    out |= 1 << r
    else:
        raise TypeError(f"not a formula: {phi!r}")
    cache[key] = out
    return out


def satisfies(m: Model, world: str, phi: Formula, cache: dict | None = None) -> bool:
    if world not in m.index:
        raise WorldNotInCarrier(world)
    return bool(truth_set(m, phi, cache) >> m.index[world] & 1)


def valid_in_model(m: Model, phi: Formula) -> tuple[bool, str | None]:
    """Whether ``phi`` holds at every world; on failure, the first failing
    world in carrier order."""
    ts = truth_set(m, phi)
    if ts == m.full_mask:
        return (True, None)
    for i in range(m.n):
        if not ts >> i & 1:
            return (False, m.carrier[i])
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Direct clauses for the dual modalities (independent cross-check)


def satisfies_direct(m: Model, world: str, phi: Formula) -> bool:
    """Naive recursive evaluation; dual modalities use their direct clauses
    with conjunctive definedness guards."""
    if world not in m.index:
        raise WorldNotInCarrier(world)
    return _sd(m, m.index[world], phi)


def _sd(m: Model, r: int, phi: Formula) -> bool:
    if isinstance(phi, Atom):
        return bool(m.atom_mask(phi.name) >> r & 1)
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Unit):
        return r == m.unit_i
    if isinstance(phi, Not):
        return not _sd(m, r, phi.body)
    if isinstance(phi, And):
        return _sd(m, r, phi.left) and _sd(m, r, phi.right)
    if isinstance(phi, Or):
        return _sd(m, r, phi.left) or _sd(m, r, phi.right)
    if isinstance(phi, Implies):
        return (not _sd(m, r, phi.left)) or _sd(m, r, phi.right)
    if isinstance(phi, Star):
        return any(_sd(m, i, phi.left) and _sd(m, j, phi.right)
                   for (i, j) in m.splits[r])
    if isinstance(phi, Wand):
        return all(not _sd(m, j, phi.left) or _sd(m, k, phi.right)
                   for (j, k) in m.extensions[r])
    if isinstance(phi, Modal):
        t = m.term_value_i(phi.term)
        agent = phi.agent
        rt = None if t is None else m.compose_i(r, t)
        if phi.op == C:
            if rt is None:
                return True
            cls = m.class_of(agent, rt)
            return all(_sd(m, i, phi.body) for i in range(m.n) if cls >> i & 1)
        if phi.op == D:
            if t is None:
                return False
            cls = m.class_of(agent, r)
            for r2 in range(m.n):
                v = m.compose_i(r2, t)
                if v is not None and cls >> v & 1 and _sd(m, v, phi.body):
                    return True
            return False
        if phi.op == E:
            if rt is None:
                return True
            cls = m.class_of(agent, rt)
            for r2 in range(m.n):
                v = m.compose_i(r2, t)
                if v is not None and cls >> v & 1 and not _sd(m, v, phi.body):
                    return False
            return True
        if phi.op == "Cdual":
            # defined combination AND some equivalent world satisfying the body
            if rt is None:
                return False
            cls = m.class_of(agent, rt)
            return any(_sd(m, i, phi.body) for i in range(m.n) if cls >> i & 1)
        if phi.op == "Ddual":
            if t is None:
                return True
            cls = m.class_of(agent, r)
            for r2 in range(m.n):
                v = m.compose_i(r2, t)
                if v is not None and cls >> v & 1 and not _sd(m, v, phi.body):
                    return False
            return True
        if phi.op == "Edual":
            if rt is None:
                return False
            cls = m.class_of(agent, rt)
            for r2 in range(m.n):
                v = m.compose_i(r2, t)
                if v is not None and cls >> v & 1 and _sd(m, v, phi.body):
                    return True
            return False
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Witnessed judgments


@dataclass
class Judgment:
    world: str
    formula: str
    verdict: bool
    witness: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"world": self.world, "formula": self.formula,
                "verdict": self.verdict, "witness": self.witness}


def explain(m: Model, world: str, phi: Formula) -> Judgment:
    if world not in m.index:
        raise WorldNotInCarrier(world)
    cache: dict = {}
    verdict = satisfies(m, world, phi, cache)
    witness = _explain(m, m.index[world], phi, cache)
    return Judgment(world, format_formula(phi, m.sig.unit), verdict, witness)


def _explain(m: Model, r: int, phi: Formula, cache: dict) -> dict:
    names = m.carrier
    holds = bool(_ts(m, phi, cache) >> r & 1)
    out = {"formula": format_formula(phi, m.sig.unit), "world": names[r],
           "verdict": holds}

    def sub(i, psi):
        return _explain(m, i, psi, cache)

    if isinstance(phi, (Atom, Top, Bot, Unit)):
        return out
    if isinstance(phi, Not):
        out["because"] = [sub(r, phi.body)]
        return out
    if isinstance(phi, (And, Or, Implies)):
        out["because"] = [sub(r, phi.left), sub(r, phi.right)]
        return out
    if isinstance(phi, Star):
        if holds:
            sl, sr = _ts(m, phi.left, cache), _ts(m, phi.right, cache)
            for (i, j) in m.splits[r]:
                if sl >> i & 1 and sr >> j & 1:
                    out["split"] = [names[i], names[j]]
                    out["because"] = [sub(i, phi.left), sub(j, phi.right)]
                    break
        else:
            out["splits_checked"] = [[names[i], names[j]] for (i, j) in m.splits[r]]
        return out
    if isinstance(phi, Wand):
        if not holds:
            sl, sr = _ts(m, phi.left, cache), _ts(m, phi.right, cache)
            for (j, k) in m.extensions[r]:
                if sl >> j & 1 and not sr >> k & 1:
                    out["extension"] = [names[j], names[k]]
                    out["because"] = [sub(j, phi.left), sub(k, phi.right)]
                    break
        return out
    if isinstance(phi, Modal):
        t = m.term_value_i(phi.term)
        if t is None:
            out["note"] = "local resource term is undefined in this model"
            return out
        if BASE_OF.get(phi.op, phi.op) != D:
            rt = m.compose_i(r, t)
            if rt is None:
                out["note"] = f"{names[r]}.{phi.term.text(m.sig.unit)} is undefined"
                return out
            out["combination"] = names[rt]
        partners = m.partners(phi)[r]
        bset = _ts(m, phi.body, cache)
        # the partners failing a universal modality's body, or satisfying
        # an existential one's; the first of them is the witness
        hits = partners & (~bset if phi.op in UNIVERSAL else bset)
        if hits:
            i = (hits & -hits).bit_length() - 1
            out["partner"] = names[i]
            out["because"] = [sub(i, phi.body)]
        else:
            out["partners"] = m.mask_worlds(partners)
        return out
    return out


# ---------------------------------------------------------------------------
# Brute-force countermodel search


def find_countermodel(phi: Formula, sig, carrier_bound: int = 4,
                      logic: str = ERL, cap: int = 10 ** 9,
                      atoms: set | None = None):
    """First enumerated model (with carrier up to ``carrier_bound``) and
    world falsifying ``phi``, or None when the bounds are exhausted."""
    from .syntax import atoms_of
    if atoms is None:
        atoms = atoms_of(phi)
    max_extra = max(0, carrier_bound - len(sig.resources))
    for m in enumerate_models(sig, max_extra, atoms, logic, cap):
        ok, world = valid_in_model(m, phi)
        if not ok:
            return (m, world)
    return None
