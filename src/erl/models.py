"""Finite partial resource monoids and Kripke-style models over them.

A model is a frame plus a valuation.  The frame (``Frame``) fixes a finite
carrier extending the signature's resources, a partial
commutative-associative composition with the unit as neutral element, and
one equivalence relation per agent; it also holds everything derived from
those alone: the world index, the dense composition table, and read off it
the splits and extensions of each world, term values and the partner table
of each modality.  A valuation maps each atom to a world set.  Worlds are
referred to by name at the API surface; internally they are indexed and
world sets are bitmasks.

Four builders make frames, each from index-level cells and agent classes:
``make_model`` from name-level data and ``hintikka.extract_model`` from a
branch closure both take their cells from ``syntax.composition_cells`` and
their classes from ``_close_equiv``; ``enumerate_blocks`` and
``sample_models`` both lay out the carrier and each cell's options with
``_cells`` and take their classes from partitions (``_classes``).

The valuations of a frame come in blocks (``Valuations``) of at most
``BLOCK``; bit v of an evaluation table's row stands for valuation v of the
block, so one table serves every model of the block.  A ``Model`` is a
frame, its valuation, the block and column it sits in, and its table dict
(``Model.tables``), which the models of one (frame, block) pair from
``enumerate_models`` share; it reads the frame's fields through.  All but
``enumerate_blocks`` build frames with a single valuation.  A model's
valuation must not change once it has been evaluated: the tables would
keep the old one.  Nor may an enumerated model's: its valuation dict may
be shared with other frames and other calls (see below).

``enumerate_blocks`` streams every frame over the signature's resources
plus a bounded number of fresh worlds, modulo permutations of the fresh
worlds, using backtracking over composition cells with incremental
associativity pruning, each with its blocks of valuations; it is the
ground truth the prover is checked against.  The frames depend on no
formula, so the process remembers them per level: one signature, one
number of fresh worlds and one logic, at most ``LEVELS`` levels, each kept
only once some call has read it whole (``_level``).  Each later call is
handed the kept frames as they are; they hold no evaluation tables, so no
table outlives the models that read it.  Frames with as many worlds and the
same stabilizer share their block when all their valuations fit one, also
across calls (``_one_block``), so models of different frames and calls may
share one valuation dict.  ``enumerate_models`` streams the models of
those blocks, one per column.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from functools import cache, lru_cache
from itertools import accumulate, islice, permutations, product
from operator import attrgetter
from typing import Iterable, Iterator

from .config import is_star
from .errors import BudgetTooLarge, ModelError
from .syntax import (BASE_OF, C, D, Modal, Signature, Term, Violation,
                     associativity_witness, composition_cells, json_names,
                     load_signature, read_json, signature_to_json)

_UNKNOWN = object()  # unassigned cell sentinel during enumeration

# Valuations per evaluation table.  A frame with more valuations is
# evaluated one block at a time, in enumeration order.
BLOCK = 256

# Evaluation tables a table dict keeps.  A dict that would hold more drops
# them all and rebuilds what it reads again, so that a long-lived model
# evaluated against ever new formulas stays bounded.
TABLES = 4096


class Frame:
    """Carrier, composition and agent classes, and what depends on them
    alone.  It depends on no valuation and no formula, so the frames the
    process keeps for enumeration are handed out as they are; their ``sig``
    is the first caller's, equal to every later one's."""

    __slots__ = ("sig", "carrier", "index", "n", "full_mask", "unit_i", "comp",
                 "table", "classmask", "equiv_pairs", "splits", "extensions",
                 "_tv", "_partners")

    def __init__(self, sig: Signature, carrier: tuple[str, ...], comp: dict,
                 classmask: dict, equiv_pairs: dict,
                 like: Frame | None = None):
        self.sig = sig
        self.carrier = carrier
        self.comp = comp                  # {(i, j) with i <= j: k}, unit rows implicit
        self.classmask = classmask        # agent -> class bitmask per world
        self.equiv_pairs = equiv_pairs    # agent -> sorted generator pairs (indices)
        self._partners = {}
        if like is not None:
            # the same carrier and composition: share what derives from them
            (self.index, self.n, self.full_mask, self.unit_i, self.table,
             self.splits, self.extensions, self._tv) = (
                like.index, like.n, like.full_mask, like.unit_i, like.table,
                like.splits, like.extensions, like._tv)
            return
        self.index = {w: i for i, w in enumerate(carrier)}
        self.n = n = len(carrier)
        self.full_mask = (1 << n) - 1
        self.unit_i = u = self.index[sig.unit]
        self._tv = {}
        # table[i][j] = i . j, None where undefined: the unit rows, and each
        # cell both ways round
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            table[u][i] = table[i][u] = i
        for (i, j), k in comp.items():
            if not 0 <= k < n:
                raise ModelError(f"composition {i}.{j} = {k} is outside the carrier")
            table[i][j] = table[j][i] = k
        self.table = tuple(map(tuple, table))
        # i -> (j, i . j) where defined, and r -> (i, j) with i . j = r
        self.extensions = tuple(tuple((j, k) for j, k in enumerate(row) if k is not None)
                                for row in table)
        splits = [[] for _ in range(n)]
        for i, ext in enumerate(self.extensions):
            for j, k in ext:
                splits[k].append((i, j))
        self.splits = tuple(map(tuple, splits))

    def compose_i(self, i: int, j: int) -> int | None:
        return self.table[i][j]

    def compose(self, a: str, b: str) -> str | None:
        k = self.compose_i(self.index[a], self.index[b])
        return None if k is None else self.carrier[k]

    def term_value_i(self, term: Term) -> int | None:
        """Value of a resource term: the composition of its factors, or None
        when any intermediate product is undefined."""
        if term in self._tv:
            return self._tv[term]
        val = self.unit_i
        for name in term.parts:
            i = self.index.get(name)
            if i is None:
                raise ModelError(f"resource {name!r} not in carrier")
            val = None if val is None else self.compose_i(val, i)
        self._tv[term] = val
        return val

    def partners(self, phi: Modal) -> tuple:
        """partners[r] = bitmask of the worlds the modality of ``phi`` reads
        from world r, where u is its agent and t the value of its term.  A
        modality and its dual read the same worlds:

            C and its dual:  the u-class of r.t
            D and its dual:  the u-class of r,   within the image of (-).t
            E and its dual:  the u-class of r.t, within the image of (-).t

        The mask is empty where t, or for C and E where r.t, is undefined."""
        family = BASE_OF.get(phi.op, phi.op)
        key = (family, phi.agent, phi.term)
        out = self._partners.get(key)
        if out is not None:
            return out
        n = self.n
        t = self.term_value_i(phi.term)
        if t is None:
            out = (0,) * n
        else:
            masks = self.classmask[phi.agent]
            rt = [row[t] for row in self.table]
            image = (self.full_mask if family == C else
                     sum(1 << v for v in set(rt) - {None}))
            sources = range(n) if family == D else rt
            out = tuple([0 if v is None else masks[v] & image for v in sources])
        self._partners[key] = out
        return out

    def mask_worlds(self, mask: int) -> list[str]:
        return [self.carrier[i] for i in range(self.n) if mask >> i & 1]


class Valuations:
    """A block of at most ``BLOCK`` valuations of one frame, in enumeration
    order: valuation v sets bit v of every table row."""

    __slots__ = ("valuations", "full", "_atoms")

    def __init__(self, valuations: list):
        self.valuations = valuations      # atom -> world bitmask, per column
        self.full = (1 << len(valuations)) - 1
        self._atoms = {}

    def atom_rows(self, atom: str, n: int) -> tuple:
        """rows[w] = the valuations that make ``atom`` true at world w."""
        rows = self._atoms.get(atom)
        if rows is None:
            cols = {}                     # mask -> valuations giving it
            bit = 1
            for val in self.valuations:
                mask = val.get(atom, 0)
                cols[mask] = cols.get(mask, 0) | bit
                bit <<= 1
            out = [0] * n
            for mask, vs in cols.items():
                w = 0
                while mask:
                    if mask & 1:
                        out[w] |= vs
                    mask >>= 1
                    w += 1
            rows = self._atoms[atom] = tuple(out)
        return rows


class Model:
    """A frame and one valuation, column ``col`` of the block ``block``.
    ``tables`` maps ``id(phi)`` to ``(phi, rows)``, at most ``TABLES`` of
    them, the table of ``phi`` on frame and block (see ``checker``); ``phi``
    keeps its id from reuse while the entry lives.  The frame's fields and
    queries read through (``m.carrier``, ``m.compose``, ...)."""

    __slots__ = ("frame", "valuation", "block", "col", "tables")

    def __init__(self, frame: Frame, valuation: dict,
                 block: Valuations | None = None, col: int = 0,
                 tables: dict | None = None):
        self.frame = frame
        self.valuation = valuation        # atom -> bitmask
        self.block = Valuations([valuation]) if block is None else block
        self.col = col
        self.tables = {} if tables is None else tables

    def atom_mask(self, atom: str) -> int:
        return self.valuation.get(atom, 0)

    def key(self) -> tuple:
        """Value identity, used for duplicate detection in tests."""
        return (self.carrier,
                tuple(sorted(self.comp.items())),
                tuple((a, tuple(m)) for a, m in sorted(self.classmask.items())),
                tuple(sorted(self.valuation.items())))

    def __repr__(self):
        cells = ", ".join(f"{self.carrier[i]}.{self.carrier[j]}={self.carrier[k]}"
                          for (i, j), k in sorted(self.comp.items()))
        return f"<Model carrier={list(self.carrier)} comp=[{cells}]>"


for _name in ("sig", "carrier", "index", "n", "full_mask", "unit_i", "comp",
              "table", "classmask", "equiv_pairs", "splits", "extensions",
              "compose_i", "compose", "term_value_i", "partners", "mask_worlds"):
    setattr(Model, _name, property(attrgetter("frame." + _name)))


def _close_equiv(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Reflexive-symmetric-transitive closure as per-world class bitmasks."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for (a, b) in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    masks = [0] * n
    for i in range(n):
        masks[find(i)] |= 1 << i
    return [masks[find(i)] for i in range(n)]


def make_model(sig: Signature, carrier: Iterable[str],
               comp: Iterable[tuple[str, str, str]] = (),
               equiv: dict[str, Iterable[tuple[str, str]]] | None = None,
               valuation: dict[str, Iterable[str]] | None = None) -> Model:
    """Assemble a model from name-level data.  Unit rows are implicit,
    commuted composition orientations are completed, and equivalence pairs
    are closed reflexively, symmetrically and transitively."""
    carrier = tuple(dict.fromkeys(carrier))
    index = {w: i for i, w in enumerate(carrier)}
    for r in sig.resources:
        if r not in index:
            raise ModelError(f"carrier must contain resource {r!r}")

    def worlds(names, what: str) -> list[int]:
        try:
            return [index[w] for w in names]
        except KeyError as exc:
            raise ModelError(f"{what} mentions unknown world {exc}") from None

    rows = [worlds(row, f"composition row {row}") for row in comp]
    table = composition_cells(rows, index[sig.unit], ModelError, carrier.__getitem__)

    unknown = sorted(set(equiv or {}) - sig.agents)
    if unknown:
        raise ModelError(f"equiv names agent {unknown[0]!r}, which the signature lacks")
    classmask = {}
    equiv_pairs = {}
    for agent in sorted(sig.agents):
        pairs_i = [worlds(pair, f"equivalence pair {pair}")
                   for pair in (equiv or {}).get(agent, ())]
        classmask[agent] = _close_equiv(len(carrier), pairs_i)
        equiv_pairs[agent] = sorted({(min(i, j), max(i, j))
                                     for i, j in pairs_i if i != j})

    val = {atom: sum(1 << i for i in set(worlds(ws, f"the valuation of {atom!r}")))
           for atom, ws in (valuation or {}).items()}

    return Model(Frame(sig, carrier, table, classmask, equiv_pairs), val)


# ---------------------------------------------------------------------------
# Validation


def validate_model(m: Model, logic: str = "erl") -> list[Violation]:
    out = []
    star = is_star(logic)
    sig = m.sig
    names = m.carrier
    n = m.n

    for r in sorted(sig.resources):
        if r not in m.index:
            out.append(Violation("Carrier", (r,), "missing signature resource"))
            return out

    # Kleene associativity (with commutativity this is definedness-invariance
    # of every three-way product)
    triple = associativity_witness(m.table, range(n), m.unit_i)
    if triple is not None:
        a, b, c = triple
        out.append(Violation(
            "Associativity", (names[a], names[b], names[c]),
            f"{names[a]}.({names[b]}.{names[c]}) defined but reassociation fails"))
        return out

    # composition extends the signature's syntactic composition
    for r in sorted(sig.resources):
        for s in sorted(sig.resources):
            want = sig.compose(r, s)
            got = m.compose(r, s)
            if want is not None and got != want:
                out.append(Violation("Extension", (r, s), f"expected {want}, got {got}"))
                return out
            if want is None and got is not None and got in sig.resources:
                out.append(Violation("Extension", (r, s),
                                     f"{got} lies in the signature but {r}.{s} is undeclared"))
                return out

    # per-agent relations are equivalence relations by construction; verify
    # the mask structure anyway (guards hand-built models)
    for agent, masks in sorted(m.classmask.items()):
        for i in range(n):
            if not masks[i] >> i & 1:
                out.append(Violation("Equivalence", (agent, names[i]), "not reflexive"))
                return out
            for j in range(n):
                if masks[i] >> j & 1 and masks[j] != masks[i]:
                    out.append(Violation("Equivalence", (agent, names[i], names[j]),
                                         "classes are not consistent"))
                    return out

    if star:
        viol = star_compat_violation(m)
        if viol is not None:
            agent, r, r2, s = viol
            out.append(Violation("Compatibility", (agent, names[r], names[r2], names[s]),
                                 f"{names[r]}.{names[s]} defined, {names[r]} ~ {names[r2]}, "
                                 f"but the compatible composite is missing"))
    return out


def star_compat_violation(m: Model | Frame) -> tuple | None:
    """First witness against compatibility of the agent relations with
    composition, or None when the model is compatible."""
    n, table = m.n, m.table
    for agent in sorted(m.classmask):
        masks = m.classmask[agent]
        for r, ext in enumerate(m.extensions):
            cls = masks[r]
            for s, rs in ext:
                for r2 in range(n):
                    if cls >> r2 & 1:
                        r2s = table[r2][s]
                        if r2s is None or not masks[rs] >> r2s & 1:
                            return (agent, r, r2, s)
    return None


# ---------------------------------------------------------------------------
# JSON


def model_to_json(m: Model, world: str | None = None) -> dict:
    data = {
        "carrier": list(m.carrier),
        "unit": m.sig.unit,
        "composition": [[m.carrier[i], m.carrier[j], m.carrier[k]]
                        for (i, j), k in sorted(m.comp.items())],
        "equiv": {a: [[m.carrier[i], m.carrier[j]] for (i, j) in pairs]
                  for a, pairs in sorted(m.equiv_pairs.items())},
        "valuation": {atom: m.mask_worlds(mask)
                      for atom, mask in sorted(m.valuation.items())},
        "signature": signature_to_json(m.sig),
    }
    if world is not None:
        data["world"] = world
    return data


def load_model(source, sig: Signature | None = None) -> tuple[Model, str | None]:
    """Load a model (and optional designated world) from JSON.  The file may
    embed its signature; otherwise one must be supplied."""
    data = read_json(source, ModelError, ("carrier", "composition"))
    equiv = data.get("equiv", {})
    if not isinstance(equiv, dict) or not all(isinstance(p, list) for p in equiv.values()):
        raise ModelError("equiv must map each agent to a list of pairs")
    valuation = data.get("valuation", {})
    if not isinstance(valuation, dict):
        raise ModelError("valuation must map each atom to a list of worlds")
    world = data.get("world")
    if world is not None and not isinstance(world, str):
        raise ModelError(f"designated world must be a name, got {world!r}")
    if sig is None:
        if "signature" not in data:
            raise ModelError("model file has no embedded signature; pass one explicitly")
        sig = load_signature(data["signature"])
    if data.get("unit", sig.unit) != sig.unit:
        raise ModelError(f"model unit {data['unit']!r} is not the signature's unit {sig.unit!r}")
    carrier = json_names(data.get("carrier", []), "carrier", ModelError)
    if len(set(carrier)) < len(carrier):
        raise ModelError(f"carrier lists a world twice: {list(carrier)!r}")
    m = make_model(
        sig,
        carrier,
        [json_names(row, "a composition row", ModelError, 3)
         for row in data.get("composition", [])],
        {a: [json_names(p, "an equiv pair", ModelError, 2) for p in pairs]
         for a, pairs in equiv.items()},
        {atom: json_names(ws, f"the valuation of {atom!r}", ModelError)
         for atom, ws in valuation.items()},
    )
    if world is not None and world not in m.index:
        raise ModelError(f"designated world {world!r} not in carrier")
    return m, world


# ---------------------------------------------------------------------------
# Enumeration


@cache
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of range(n) as restricted-growth strings."""
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
    return tuple(out)


@cache
def _classes(rgs: tuple[int, ...]) -> tuple[tuple[int, ...], tuple]:
    """A partition's class bitmask per world, and its generator pairs: the
    least world of each class paired with each other member, sorted."""
    masks: dict[int, int] = {}
    first: dict[int, int] = {}
    pairs = []
    for i, b in enumerate(rgs):
        masks[b] = masks.get(b, 0) | 1 << i
        if first.setdefault(b, i) != i:
            pairs.append((first[b], i))
    return tuple(masks[b] for b in rgs), tuple(sorted(pairs))


def _perm_rgs(rgs: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel a partition along a world permutation, renormalized to RGS."""
    moved = [0] * len(rgs)
    for i, b in enumerate(rgs):
        moved[perm[i]] = b
    seen: dict[int, int] = {}
    out = []
    for b in moved:
        if b not in seen:
            seen[b] = len(seen)
        out.append(seen[b])
    return tuple(out)


def _perm_comp(comp_enc: tuple, perm: tuple[int, ...], cells: list) -> tuple:
    table = {}
    for cell, v in zip(cells, comp_enc):
        if v < 0:
            continue
        i, j = perm[cell[0]], perm[cell[1]]
        table[(min(i, j), max(i, j))] = perm[v]
    return tuple(table.get(cell, -1) for cell in cells)


def _perm_mask(mask: int, perm: tuple[int, ...], n: int) -> int:
    out = 0
    for i in range(n):
        if mask >> i & 1:
            out |= 1 << perm[i]
    return out


class _AssocChecker:
    """Incremental Kleene-associativity check over a partially built table.

    With commutativity, a product of three worlds a, b, c has three
    bracketings, a.(b.c), b.(a.c) and c.(a.b).  The table is consistent
    when, for every such triple, the bracketings the known cells determine
    agree: all undefined, or all the same world."""

    def __init__(self, n: int, unit_i: int):
        self.others = [t for t in range(n) if t != unit_i]
        # tab[i][j] = i.j: a world, None where undefined, or _UNKNOWN
        self.tab = [[_UNKNOWN] * n for _ in range(n)]
        for i in range(n):
            self.tab[unit_i][i] = self.tab[i][unit_i] = i
        self.cells: dict = {}  # assigned cell (i, j), i <= j -> value

    def assign(self, x: int, y: int, v: int | None) -> bool:
        """Set cell (x, y) to ``v``; whether the table stays consistent,
        given that it was before.  Only triples that look that cell up can
        break: those containing x and y, and those with a bracketing y.(b.c)
        where b.c = x, or x.(b.c) where b.c = y."""
        tab = self.tab
        tab[x][y] = tab[y][x] = self.cells[(x, y)] = v
        triples = [(x, y, t) for t in self.others]
        for (b, c), bc in self.cells.items():
            if bc == x:
                triples.append((y, b, c))
            if bc == y:
                triples.append((x, b, c))
        for (a, b, c) in triples:
            seen = _UNKNOWN
            for (o, i, j) in ((a, b, c), (b, a, c), (c, a, b)):
                ij = tab[i][j]
                if ij is _UNKNOWN:
                    continue
                oij = None if ij is None else tab[o][ij]
                if oij is _UNKNOWN:
                    continue
                if seen is _UNKNOWN:
                    seen = oij
                elif oij != seen:
                    return False
        return True

    def clear(self, x: int, y: int) -> None:
        self.tab[x][y] = self.tab[y][x] = _UNKNOWN
        del self.cells[(x, y)]


def _fresh_names(sig: Signature, k: int) -> list[str]:
    """w1, ..., wk, each with x appended until it names no resource."""
    names = []
    for i in range(1, k + 1):
        cand = f"w{i}"
        while cand in sig.resources:
            cand += "x"
        names.append(cand)
    return names


def _cells(sig: Signature, extra: int) -> tuple:
    """The carrier (the signature's resources by name, then ``extra`` fresh
    worlds), the unit's index, the cells (i, j), i <= j, off the unit, and
    each cell's options, undefined (None) first.  A product the signature
    defines is forced; any other product of two resources is undefined or
    fresh, as one inside the signature would contradict extension of the
    syntactic composition; any other cell may take any value."""
    res = sorted(sig.resources)
    carrier = tuple(res + _fresh_names(sig, extra))
    n = len(carrier)
    unit_i = carrier.index(sig.unit)
    cells, options = [], []
    for i in range(n):
        for j in range(i, n):
            if unit_i in (i, j):
                continue
            cells.append((i, j))
            if j >= len(res):             # i <= j: a fresh world is a factor
                options.append([None, *range(n)])
            elif (t := sig.compose(carrier[i], carrier[j])) is not None:
                options.append([res.index(t)])
            else:
                options.append([None, *range(len(res), n)])
    return carrier, unit_i, cells, options


def enumerate_prms(sig: Signature, extra: int) -> Iterator[tuple]:
    """Stream (carrier, comp, stabilizer) for all partial resource monoids on
    the signature's resources plus ``extra`` fresh worlds, canonical under
    permutations of the fresh worlds.  ``stabilizer`` lists the fresh-world
    permutations (as full index maps) other than the identity that fix the
    composition table."""
    carrier, unit_i, cells, options = _cells(sig, extra)
    n = len(carrier)
    # the fresh worlds come last: a permutation of them fixes the rest; the
    # first permutation, the identity, fixes every table
    perms = [tuple(range(n - extra)) + p
             for p in permutations(range(n - extra, n))][1:]

    checker = _AssocChecker(n, unit_i)
    lookup = checker.cells

    def rec(idx: int):
        if idx == len(cells):
            enc = tuple(-1 if lookup.get(c) is None else lookup[c] for c in cells)
            stab = []
            minimal = True
            for perm in perms:
                img = _perm_comp(enc, perm, cells)
                if img < enc:
                    minimal = False
                    break
                if img == enc:
                    stab.append(perm)
            if minimal:
                yield (carrier, dict((c, v) for c, v in lookup.items() if v is not None),
                       tuple(stab))
            return
        for v in options[idx]:
            if checker.assign(*cells[idx], v):
                yield from rec(idx + 1)
        checker.clear(*cells[idx])

    yield from rec(0)


@cache
def _bell(n: int) -> int:
    """The number of partitions of range(n), off the Bell triangle."""
    row = [1]
    for _ in range(n):
        row = list(accumulate(row, initial=row[-1]))
    return row[0]


def estimate_stream(sig: Signature, max_extra: int, atoms: Iterable[str]) -> int:
    """Loose upper bound on the number of models the enumeration may yield:
    the product of the option counts of ``_cells`` over n worlds (n + 1 with
    a fresh factor, 1 for a defined product, extra + 1 otherwise) times the
    agent partitions and the valuations, summed until past the cap."""
    total = 0
    n_atoms = len(tuple(atoms))
    n_agents = max(1, len(sig.agents))
    res_cells = len(sig.resources) * (len(sig.resources) - 1) // 2  # off the unit
    for extra in range(max_extra + 1):
        n = len(sig.resources) + extra
        options = ((n + 1) ** (n * (n - 1) // 2 - res_cells)
                   * (extra + 1) ** (res_cells - len(sig.composition)))
        total += options * _bell(n) ** n_agents * (1 << (n * n_atoms))
        if total > DEFAULT_STREAM_CAP:
            return total
    return total


DEFAULT_STREAM_CAP = 10 ** 9

# Enumeration levels the process keeps, the least recently started dropped
# first.  A level is the frames of one signature, fresh-world count and
# logic (see ``_level``).
LEVELS = 8

# Single-block valuation streams the process keeps (see ``_one_block``).
ONE_BLOCKS = 64


_levels: OrderedDict = OrderedDict()      # level key -> [(frame, stabilizer)]


def _level(sig: Signature, extra: int, star: bool) -> Iterator[tuple]:
    """Stream ``(frame, stabilizer)`` for the frames of ``_level_frames``.
    A level some call has read whole is kept and handed out as it is; a
    call that finds none streams its own generator and keeps what it read
    only once that generator is exhausted.  A call that stops early, or is
    interrupted, keeps nothing."""
    key = (sig, extra, star)
    kept = _levels.get(key)
    if kept is not None:
        _levels.move_to_end(key)
        yield from kept
        return
    frames = []
    for item in _level_frames(sig, extra, star):
        frames.append(item)
        yield item
    _levels.setdefault(key, frames)     # a level finished earlier stays
    _levels.move_to_end(key)
    if len(_levels) > LEVELS:
        _levels.popitem(last=False)


def _level_frames(sig: Signature, extra: int, star: bool) -> Iterator[tuple]:
    """Stream ``(frame, stabilizer)`` for every frame with carrier Res plus
    ``extra`` fresh worlds, up to permutation of the fresh worlds, in
    enumeration order; in the compatible logic only compatible ones.  The
    stabilizer lists the fresh-world permutations other than the identity
    that fix the frame."""
    agents = sorted(sig.agents)
    for carrier, comp, stab in enumerate_prms(sig, extra):
        parts = _partitions(len(carrier))
        like = None
        for assignment in product(parts, repeat=len(agents)):
            if stab:
                if any(tuple(_perm_rgs(r, p) for r in assignment) < assignment
                       for p in stab):
                    continue
            classes = [_classes(r) for r in assignment]
            frame = like = Frame(sig, carrier, comp,
                                 {a: c[0] for a, c in zip(agents, classes)},
                                 {a: c[1] for a, c in zip(agents, classes)},
                                 like)
            if star and star_compat_violation(frame) is not None:
                continue
            yield frame, tuple(p for p in stab
                               if all(_perm_rgs(r, p) == r for r in assignment))


def enumerate_blocks(sig: Signature, max_extra: int, atoms: Iterable[str],
                     logic: str = "erl") -> Iterator[tuple[Frame, Valuations]]:
    """Stream ``(frame, block)`` for every frame with carrier Res plus up to
    ``max_extra`` fresh worlds, up to permutation of the fresh worlds, and
    each block of at most ``BLOCK`` of its valuations, in enumeration order.
    In the compatible logic only compatibility-satisfying frames are
    produced.  The frames come as they are from the process's memory of
    each level (``_level``).  A frame whose valuations fit one block shares
    that block, across calls, with every frame with as many worlds and the
    same stabilizer: the valuation stream depends on nothing else.  A
    stream ``estimate_stream`` puts above ``DEFAULT_STREAM_CAP`` raises
    BudgetTooLarge."""
    star = is_star(logic)
    atoms = tuple(sorted(set(atoms)))
    if estimate_stream(sig, max_extra, atoms) > DEFAULT_STREAM_CAP:
        raise BudgetTooLarge(f"estimated stream exceeds cap {DEFAULT_STREAM_CAP}; "
                             f"restrict worlds or atoms")
    for extra in range(max_extra + 1):
        for frame, stab in _level(sig, extra, star):
            n = frame.n
            blocks = (_one_block(atoms, n, stab) if 1 << n * len(atoms) <= BLOCK
                      else _valuation_blocks(atoms, n, stab))
            for block in blocks:
                yield frame, block


@lru_cache(maxsize=ONE_BLOCKS)
def _one_block(atoms: tuple, n: int, stab: tuple) -> tuple[Valuations, ...]:
    """``_valuation_blocks`` of a stream that fits one block, kept."""
    return tuple(_valuation_blocks(atoms, n, stab))


def _valuation_blocks(atoms: tuple, n: int, stab: tuple) -> Iterator[Valuations]:
    """The valuations of ``atoms`` over n worlds that are least in their
    orbit under ``stab``, a block of ``BLOCK`` at a time."""
    stream = product(range(1 << n), repeat=len(atoms))
    if stab:
        stream = (masks for masks in stream if not any(
            tuple(_perm_mask(mk, p, n) for mk in masks) < masks
            for p in stab))
    while chunk := list(islice(stream, BLOCK)):
        yield Valuations([dict(zip(atoms, masks)) for masks in chunk])


def enumerate_models(sig: Signature, max_extra: int, atoms: Iterable[str],
                     logic: str = "erl") -> Iterator[Model]:
    """Stream every model of ``enumerate_blocks``: the models of one frame
    come one after the other and share its ``Frame``, and those of one
    (frame, block) pair one table dict."""
    for frame, block in enumerate_blocks(sig, max_extra, atoms, logic):
        tables = {}
        for col, val in enumerate(block.valuations):
            yield Model(frame, val, block, col, tables)


# random models drawn by sample_models before it gives up on ``count``
SAMPLE_TRIES = 100_000


def sample_models(sig: Signature, max_extra: int, atoms: Iterable[str],
                  logic: str = "erl", seed: int = 0,
                  count: int = 100) -> Iterator[Model]:
    """Seeded random models for property tests beyond the exhaustive range.
    Reports that consume this stream should be labelled as sampled."""
    rng = random.Random(seed)
    atoms = sorted(set(atoms))
    agents = sorted(sig.agents)
    layouts = [_cells(sig, extra) for extra in range(max_extra + 1)]
    produced = 0
    for _ in range(SAMPLE_TRIES):
        if produced >= count:
            return
        carrier, _, cells, options = layouts[rng.randint(0, max_extra)]
        n = len(carrier)
        comp = {}
        # a cell takes its one option, or else a defined value with
        # probability 0.3
        for cell, opts in zip(cells, options):
            if len(opts) == 1:
                if opts[0] is not None:
                    comp[cell] = opts[0]
            elif rng.random() < 0.3:
                comp[cell] = rng.choice(opts[1:])
        classmask, equiv_pairs = {}, {}
        for a in agents:
            rgs = []
            maxid = -1
            for _i in range(n):
                b = rng.randint(0, maxid + 1)
                rgs.append(b)
                maxid = max(maxid, b)
            classmask[a], equiv_pairs[a] = _classes(tuple(rgs))
        val = {p: rng.randrange(1 << n) for p in atoms}
        m = Model(Frame(sig, carrier, comp, classmask, equiv_pairs), val)
        if not validate_model(m, logic):
            produced += 1
            yield m
