"""The satisfaction relation over finite models.

``truth_set`` is the one evaluator.  It works on a model's frame and the
block of valuations the model sits in (see ``models``): the table of a
formula holds one int per world, whose bit v is set when the formula holds
at that world under valuation v of the block.  Boolean connectives are
bitwise operations on these rows; star, wand and the modalities are ORs and
ANDs over rows.  Every modality reads its partner worlds off
``Frame.partners``, which a modality and its dual share: a universal
modality (``syntax.UNIVERSAL``) holds where all its partners satisfy the
body, the other three where some partner does.  A table is built once per
frame and block, for the formula and each subformula, and kept with the
models that read it (``Model.tables``, at most ``models.TABLES`` tables;
see ``models``); a model's truth set is its column of the table.
``satisfies``, ``valid_in_model`` and ``explain`` read truth sets;
``find_countermodel`` reads whole tables.

``satisfies_direct`` evaluates one world at a time, and the dual modalities
by their direct clauses with definedness guards placed conjunctively (so
that they agree with the not-base-not reading even where composition is
undefined).  It exists as an independent cross-check and is deliberately
naive.

``find_countermodel`` is the brute-force oracle: it walks the frames and
valuation blocks of the enumeration, decides each block at once from the
formula's table, and returns the first model and world falsifying the
formula.  The frames and single-block valuations it reads are kept for
the life of the process, so a process that searches many times enumerates
each frame once; one search alone gains nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

from .config import ERL, RunConfig
from .errors import ErlError
# enumerate_models is not called here; it stays importable from this module,
# where perfbench's tracer patches it
from .models import (TABLES, Frame, Model, Valuations, enumerate_blocks,
                     enumerate_models)
from .syntax import (And, Atom, Bot, Formula, Implies, Modal, Not, Or, Star,
                     Top, Unit, Wand, BASE_OF, C, D, E, UNIVERSAL, atoms_of,
                     format_formula)


class WorldNotInCarrier(ErlError):
    def __init__(self, world):
        super().__init__(f"world {world!r} is not in the carrier")


# ---------------------------------------------------------------------------
# Bulk evaluation


def truth_set(m: Model, phi: Formula, cache: dict | None = None) -> int:
    """Bitmask of worlds of ``m`` satisfying ``phi``: the model's column of
    the formula's table.  ``cache`` is not read, as the model keeps the
    tables; the parameter stays for callers that pass one."""
    col = m.col
    out = 0
    bit = 1
    for row in _rows(m.tables, m.frame, m.block, phi):
        if row >> col & 1:
            out |= bit
        bit <<= 1
    return out


def _rows(tables: dict, f: Frame, block: Valuations, phi: Formula) -> tuple:
    """The table of ``phi`` on ``f`` and ``block``, kept in ``tables``: per
    world, the valuations of the block under which ``phi`` holds there."""
    hit = tables.get(id(phi))
    if hit is not None:
        return hit[1]
    full = block.full
    if isinstance(phi, Atom):
        out = block.atom_rows(phi.name, f.n)
    elif isinstance(phi, Top):
        out = (full,) * f.n
    elif isinstance(phi, Bot):
        out = (0,) * f.n
    elif isinstance(phi, Unit):
        out = tuple(full if w == f.unit_i else 0 for w in range(f.n))
    elif isinstance(phi, Not):
        out = tuple(full ^ x for x in _rows(tables, f, block, phi.body))
    elif isinstance(phi, (And, Or, Implies, Star, Wand)):
        sl = _rows(tables, f, block, phi.left)
        sr = _rows(tables, f, block, phi.right)
        if isinstance(phi, And):
            out = tuple(map(and_, sl, sr))
        elif isinstance(phi, Or):
            out = tuple(map(or_, sl, sr))
        elif isinstance(phi, Implies):
            out = tuple((full ^ x) | y for x, y in zip(sl, sr))
        elif isinstance(phi, Star):
            out = []
            for splits in f.splits:
                acc = 0
                for (i, j) in splits:
                    acc |= sl[i] & sr[j]
                out.append(acc)
            out = tuple(out)
        else:
            out = []
            for extensions in f.extensions:
                bad = 0
                for (j, k) in extensions:
                    bad |= sl[j] & ~sr[k]
                out.append(full ^ bad)
            out = tuple(out)
    elif isinstance(phi, Modal):
        body = _rows(tables, f, block, phi.body)
        universal = phi.op in UNIVERSAL
        out = []
        for partners in f.partners(phi):
            acc = full if universal else 0
            w = 0
            while partners:
                if partners & 1:
                    if universal:
                        acc &= body[w]
                    else:
                        acc |= body[w]
                partners >>= 1
                w += 1
            out.append(acc)
        out = tuple(out)
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if len(tables) >= TABLES:
        tables.clear()
    tables[id(phi)] = (phi, out)
    return out


def satisfies(m: Model, world: str, phi: Formula) -> bool:
    if world not in m.index:
        raise WorldNotInCarrier(world)
    return bool(truth_set(m, phi) >> m.index[world] & 1)


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
            cls = m.classmask[agent][rt]
            return all(_sd(m, i, phi.body) for i in range(m.n) if cls >> i & 1)
        if phi.op == D:
            if t is None:
                return False
            cls = m.classmask[agent][r]
            for r2 in range(m.n):
                v = m.compose_i(r2, t)
                if v is not None and cls >> v & 1 and _sd(m, v, phi.body):
                    return True
            return False
        if phi.op == E:
            if rt is None:
                return True
            cls = m.classmask[agent][rt]
            for r2 in range(m.n):
                v = m.compose_i(r2, t)
                if v is not None and cls >> v & 1 and not _sd(m, v, phi.body):
                    return False
            return True
        if phi.op == "Cdual":
            # defined combination AND some equivalent world satisfying the body
            if rt is None:
                return False
            cls = m.classmask[agent][rt]
            return any(_sd(m, i, phi.body) for i in range(m.n) if cls >> i & 1)
        if phi.op == "Ddual":
            if t is None:
                return True
            cls = m.classmask[agent][r]
            for r2 in range(m.n):
                v = m.compose_i(r2, t)
                if v is not None and cls >> v & 1 and not _sd(m, v, phi.body):
                    return False
            return True
        if phi.op == "Edual":
            if rt is None:
                return False
            cls = m.classmask[agent][rt]
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
    verdict = satisfies(m, world, phi)
    witness = _explain(m, m.index[world], phi)
    return Judgment(world, format_formula(phi, m.sig.unit), verdict, witness)


def _explain(m: Model, r: int, phi: Formula) -> dict:
    names = m.carrier
    holds = bool(truth_set(m, phi) >> r & 1)
    out = {"formula": format_formula(phi, m.sig.unit), "world": names[r],
           "verdict": holds}

    def sub(i, psi):
        return _explain(m, i, psi)

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
            sl, sr = truth_set(m, phi.left), truth_set(m, phi.right)
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
            sl, sr = truth_set(m, phi.left), truth_set(m, phi.right)
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
        bset = truth_set(m, phi.body)
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


def find_countermodel(phi: Formula, sig, carrier_bound: int = RunConfig.carrier_bound,
                      logic: str = ERL):
    """First enumerated model (with carrier up to ``carrier_bound``) and
    world falsifying ``phi``, or None when the bounds are exhausted.  Each
    step decides a whole block of valuations: the AND of the formula's rows
    has a bit clear for each countermodel of the block.  A bound below the
    number of the signature's resources, which every model holds, raises
    ErlError."""
    max_extra = carrier_bound - len(sig.resources)
    if max_extra < 0:
        raise ErlError(f"carrier bound {carrier_bound} is below the "
                       f"{len(sig.resources)} resources of the signature")
    for frame, block in enumerate_blocks(sig, max_extra, atoms_of(phi), logic):
        tables = {}
        rows = _rows(tables, frame, block, phi)
        valid = reduce(and_, rows)
        if valid == block.full:
            continue
        col = (~valid & valid + 1).bit_length() - 1    # lowest clear bit
        world = next(w for w, row in enumerate(rows) if not row >> col & 1)
        return (Model(frame, block.valuations[col], block, col, tables),
                frame.carrier[world])
    return None
