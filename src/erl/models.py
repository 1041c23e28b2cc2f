"""Finite partial resource monoids and Kripke-style models over them.

A model fixes a finite carrier extending the signature's resources, a
partial commutative-associative composition with the unit as neutral
element, one equivalence relation per agent, and a valuation.  Worlds are
referred to by name at the API surface; internally they are indexed and
world sets are bitmasks.

``enumerate_models`` streams every model over the signature's resources
plus a bounded number of fresh worlds, modulo permutations of the fresh
worlds, using backtracking over composition cells with early associativity
pruning.  It is the ground truth the prover is checked against.
"""

from __future__ import annotations

import random
from itertools import permutations, product
from typing import Iterable, Iterator

from .config import is_star
from .errors import BudgetTooLarge, ModelError
from .syntax import (BASE_OF, C, D, Modal, Signature, Term, Violation,
                     associativity_witness, read_json)

_UNKNOWN = object()  # unassigned cell sentinel during enumeration


class Model:
    __slots__ = ("sig", "carrier", "index", "unit_i", "comp", "equiv_pairs",
                 "classmask", "valuation", "_splits", "_ext", "_tv", "_partners")

    def __init__(self, sig: Signature, carrier: tuple[str, ...],
                 comp: dict, classmask: dict, valuation: dict,
                 equiv_pairs: dict, partners: dict | None = None):
        self.sig = sig
        self.carrier = carrier
        self.index = {w: i for i, w in enumerate(carrier)}
        self.unit_i = self.index[sig.unit]
        self.comp = comp                  # {(i, j) with i <= j: k}, unit rows implicit
        self.classmask = classmask        # agent -> list of bitmask per world
        self.valuation = valuation        # atom -> bitmask
        self.equiv_pairs = equiv_pairs    # agent -> sorted generator pairs (names)
        self._splits = None
        self._ext = None
        self._tv = {}
        # models of one frame (carrier, composition, agent classes) may
        # share this cache: their partner tables are the same
        self._partners = {} if partners is None else partners

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.carrier)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def compose_i(self, i: int, j: int) -> int | None:
        if i == self.unit_i:
            return j
        if j == self.unit_i:
            return i
        return self.comp.get((i, j) if i <= j else (j, i))

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
        n = len(self.carrier)
        t = self.term_value_i(phi.term)
        if t is None:
            out = (0,) * n
        else:
            masks = self.classmask[phi.agent]
            rt = [self.compose_i(r, t) for r in range(n)]
            image = ((1 << n) - 1 if family == C else
                     sum(1 << v for v in set(rt) - {None}))
            sources = range(n) if family == D else rt
            out = tuple([0 if v is None else masks[v] & image for v in sources])
        self._partners[key] = out
        return out

    def class_of(self, agent: str, i: int) -> int:
        return self.classmask[agent][i]

    def atom_mask(self, atom: str) -> int:
        return self.valuation.get(atom, 0)

    # -- precomputed structure for the evaluator ------------------------------

    @property
    def splits(self) -> tuple:
        """splits[r] = tuple of (i, j) with i . j = r (ordered pairs)."""
        if self._splits is None:
            out = [[] for _ in range(self.n)]
            for i in range(self.n):
                for j in range(self.n):
                    k = self.compose_i(i, j)
                    if k is not None:
                        out[k].append((i, j))
            self._splits = tuple(tuple(v) for v in out)
        return self._splits

    @property
    def extensions(self) -> tuple:
        """extensions[r] = tuple of (j, r.j) over defined compositions."""
        if self._ext is None:
            out = [[] for _ in range(self.n)]
            for i in range(self.n):
                for j in range(self.n):
                    k = self.compose_i(i, j)
                    if k is not None:
                        out[i].append((j, k))
            self._ext = tuple(tuple(v) for v in out)
        return self._ext

    def mask_worlds(self, mask: int) -> list[str]:
        return [self.carrier[i] for i in range(self.n) if mask >> i & 1]

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
    unit_i = index[sig.unit]

    table: dict[tuple[int, int], int] = {}
    for (a, b, c) in comp:
        try:
            i, j, k = index[a], index[b], index[c]
        except KeyError as exc:
            raise ModelError(f"composition row {(a, b, c)} mentions unknown world {exc}")
        if unit_i in (i, j):
            other = j if i == unit_i else i
            if k != other:
                raise ModelError(f"unit row {(a, b, c)} must map to {carrier[other]}")
            continue
        cell = (i, j) if i <= j else (j, i)
        if table.get(cell, k) != k:
            raise ModelError(f"conflicting composition for {a}.{b}")
        table[cell] = k

    unknown = sorted(set(equiv or {}) - sig.agents)
    if unknown:
        raise ModelError(f"equiv names agent {unknown[0]!r}, which the signature lacks")
    classmask = {}
    equiv_pairs = {}
    for agent in sorted(sig.agents):
        raw = list((equiv or {}).get(agent, ()))
        pairs_i = []
        for (a, b) in raw:
            if a not in index or b not in index:
                raise ModelError(f"equivalence pair {(a, b)} mentions unknown world")
            pairs_i.append((index[a], index[b]))
        classmask[agent] = _close_equiv(len(carrier), pairs_i)
        equiv_pairs[agent] = sorted({(min(i, j), max(i, j))
                                     for i, j in pairs_i if i != j})

    val = {}
    for atom, worlds in (valuation or {}).items():
        mask = 0
        for w in worlds:
            if w not in index:
                raise ModelError(f"valuation of {atom!r} mentions unknown world {w!r}")
            mask |= 1 << index[w]
        val[atom] = mask

    return Model(sig, carrier, table, classmask, val, equiv_pairs)


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

    # commutativity holds by the canonical cell representation; check cells
    for (i, j), k in sorted(m.comp.items()):
        if not (0 <= k < n):
            out.append(Violation("Table", (names[i], names[j]), "result outside carrier"))
            return out

    # Kleene associativity (with commutativity this is definedness-invariance
    # of every three-way product)
    triple = associativity_witness(range(n), m.compose_i)
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


def star_compat_violation(m: Model) -> tuple | None:
    """First witness against compatibility of the agent relations with
    composition, or None when the model is compatible."""
    n = m.n
    for agent in sorted(m.classmask):
        masks = m.classmask[agent]
        for r in range(n):
            for s in range(n):
                rs = m.compose_i(r, s)
                if rs is None:
                    continue
                cls = masks[r]
                for r2 in range(n):
                    if not cls >> r2 & 1:
                        continue
                    r2s = m.compose_i(r2, s)
                    if r2s is None or not masks[rs] >> r2s & 1:
                        return (agent, r, r2, s)
    return None


# ---------------------------------------------------------------------------
# JSON


def model_to_json(m: Model, world: str | None = None,
                  include_signature: bool = True) -> dict:
    data = {
        "carrier": list(m.carrier),
        "unit": m.sig.unit,
        "composition": [[m.carrier[i], m.carrier[j], m.carrier[k]]
                        for (i, j), k in sorted(m.comp.items())],
        "equiv": {a: [[m.carrier[i], m.carrier[j]] for (i, j) in pairs]
                  for a, pairs in sorted(m.equiv_pairs.items())},
        "valuation": {atom: m.mask_worlds(mask)
                      for atom, mask in sorted(m.valuation.items())},
    }
    if world is not None:
        data["world"] = world
    if include_signature:
        from .syntax import signature_to_json
        data["signature"] = signature_to_json(m.sig)
    return data


def load_model(source, sig: Signature | None = None) -> tuple[Model, str | None]:
    """Load a model (and optional designated world) from JSON.  The file may
    embed its signature; otherwise one must be supplied."""
    data = read_json(source, ModelError, ("carrier", "composition"))
    equiv = data.get("equiv", {})
    if not isinstance(equiv, dict) or not all(isinstance(p, list) for p in equiv.values()):
        raise ModelError("equiv must map each agent to a list of pairs")
    if sig is None:
        if "signature" not in data:
            raise ModelError("model file has no embedded signature; pass one explicitly")
        from .syntax import load_signature
        sig = load_signature(data["signature"])
    m = make_model(
        sig,
        data.get("carrier", []),
        [tuple(row) for row in data.get("composition", [])],
        {a: [tuple(p) for p in pairs] for a, pairs in equiv.items()},
        data.get("valuation", {}),
    )
    world = data.get("world")
    if world is not None and world not in m.index:
        raise ModelError(f"designated world {world!r} not in carrier")
    return m, world


# ---------------------------------------------------------------------------
# Enumeration


def _partitions(n: int) -> list[tuple[int, ...]]:
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
    return out


def _rgs_to_masks(rgs: tuple[int, ...]) -> list[int]:
    masks: dict[int, int] = {}
    for i, b in enumerate(rgs):
        masks[b] = masks.get(b, 0) | 1 << i
    return [masks[b] for b in rgs]


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
    """Incremental Kleene-associativity check over a partially built table."""

    def __init__(self, n: int, unit_i: int, lookup: dict):
        self.n = n
        self.unit_i = unit_i
        self.lookup = lookup  # mutated by the enumerator

    def get(self, i, j):
        if i == self.unit_i:
            return j
        if j == self.unit_i:
            return i
        return self.lookup.get((i, j) if i <= j else (j, i), _UNKNOWN)

    def consistent(self) -> bool:
        # With commutativity, a defined triple product forces every
        # regrouping to be defined and equal; an undefined one forbids all.
        for a in range(self.n):
            for b in range(self.n):
                for c in range(b, self.n):
                    bc = self.get(b, c)
                    if bc is _UNKNOWN or bc is None:
                        continue
                    abc = self.get(a, bc)
                    if abc is _UNKNOWN:
                        continue
                    for (u, v) in ((b, c), (c, b)):
                        au = self.get(a, u)
                        if abc is None:
                            if au is not _UNKNOWN and au is not None:
                                auv = self.get(au, v)
                                if auv is not _UNKNOWN and auv is not None:
                                    return False
                        else:
                            if au is None:
                                return False
                            if au is not _UNKNOWN:
                                auv = self.get(au, v)
                                if auv is None or (auv is not _UNKNOWN and auv != abc):
                                    return False
        return True


def _fresh_names(sig: Signature, k: int) -> list[str]:
    names = []
    used = set(sig.resources)
    i = 1
    while len(names) < k:
        cand = f"w{i}"
        while cand in used:
            cand += "x"
        names.append(cand)
        used.add(cand)
        i += 1
    return names


def enumerate_prms(sig: Signature, extra: int) -> Iterator[tuple]:
    """Stream (carrier, comp, stabilizer) for all partial resource monoids on
    the signature's resources plus ``extra`` fresh worlds, canonical under
    permutations of the fresh worlds.  ``stabilizer`` lists the fresh-world
    permutations (as full index maps) fixing the composition table."""
    res = sorted(sig.resources)
    fresh = _fresh_names(sig, extra)
    carrier = tuple(res + fresh)
    index = {w: i for i, w in enumerate(carrier)}
    unit_i = index[sig.unit]
    n = len(carrier)
    res_i = {index[r] for r in res}
    fresh_i = [index[w] for w in fresh]

    cells = [(i, j) for i in range(n) for j in range(i, n)
             if i != unit_i and j != unit_i]
    options = []
    forced = {}
    for (i, j) in cells:
        a, b = carrier[i], carrier[j]
        if i in res_i and j in res_i:
            t = sig.compose(a, b)
            if t is not None:
                forced[(i, j)] = index[t]
                options.append([index[t]])
            else:
                # a fresh value or undefined: a result inside the signature
                # would contradict extension of the syntactic composition
                options.append([None] + fresh_i)
        else:
            options.append([None] + list(range(n)))

    perms = []
    for p in permutations(fresh_i):
        mapping = list(range(n))
        for src, dst in zip(fresh_i, p):
            mapping[src] = dst
        perms.append(tuple(mapping))

    lookup: dict = {}
    checker = _AssocChecker(n, unit_i, lookup)

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
            lookup[cells[idx]] = v
            if checker.consistent():
                yield from rec(idx + 1)
        del lookup[cells[idx]]

    yield from rec(0)


def estimate_stream(sig: Signature, max_extra: int, atoms: Iterable[str]) -> int:
    """Loose upper bound on the number of models the enumeration may yield."""
    total = 0
    n_res = len(sig.resources)
    n_atoms = len(tuple(atoms))
    n_agents = max(1, len(sig.agents))
    for extra in range(max_extra + 1):
        n = n_res + extra
        cells = n * (n + 1) // 2 - n  # non-unit unordered pairs
        tables = (n + 1) ** max(cells, 0)
        bell = len(_partitions(n))
        total += tables * bell ** n_agents * (1 << (n * n_atoms))
    return total


DEFAULT_STREAM_CAP = 10 ** 9


def enumerate_models(sig: Signature, max_extra: int, atoms: Iterable[str],
                     logic: str = "erl", cap: int = DEFAULT_STREAM_CAP,
                     min_extra: int = 0) -> Iterator[Model]:
    """Stream all models with carrier Res plus up to ``max_extra`` fresh
    worlds, up to permutation of the fresh worlds.  In the compatible logic
    only compatibility-satisfying models are produced."""
    star = is_star(logic)
    atoms = sorted(set(atoms))
    if estimate_stream(sig, max_extra, atoms) > cap:
        raise BudgetTooLarge(
            f"estimated stream exceeds cap {cap}; restrict worlds or atoms")
    agents = sorted(sig.agents)
    for extra in range(min_extra, max_extra + 1):
        for carrier, comp, stab in enumerate_prms(sig, extra):
            n = len(carrier)
            parts = _partitions(n)
            nontrivial_stab = [p for p in stab if p != tuple(range(n))]
            for assignment in product(parts, repeat=len(agents)):
                if nontrivial_stab:
                    if any(tuple(_perm_rgs(r, p) for r in assignment) < assignment
                           for p in nontrivial_stab):
                        continue
                classmask = {a: _rgs_to_masks(r) for a, r in zip(agents, assignment)}
                pre = Model(sig, carrier, comp, classmask, {}, {})
                if star and star_compat_violation(pre) is not None:
                    continue
                stab2 = [p for p in nontrivial_stab
                         if all(_perm_rgs(r, p) == r for r in assignment)]
                equiv_pairs = _pairs_from_masks(carrier, classmask)
                partners: dict = {}
                for masks in product(range(1 << n), repeat=len(atoms)):
                    if stab2 and any(
                            tuple(_perm_mask(mk, p, n) for mk in masks) < masks
                            for p in stab2):
                        continue
                    val = dict(zip(atoms, masks))
                    yield Model(sig, carrier, comp, classmask, val, equiv_pairs,
                                partners)


def _pairs_from_masks(carrier, classmask) -> dict:
    out = {}
    for agent, masks in classmask.items():
        pairs = []
        seen = set()
        for i in range(len(carrier)):
            if i in seen:
                continue
            members = [j for j in range(len(carrier)) if masks[i] >> j & 1]
            seen.update(members)
            pairs.extend((members[0], j) for j in members[1:])
        out[agent] = sorted(pairs)
    return out


def sample_models(sig: Signature, max_extra: int, atoms: Iterable[str],
                  logic: str = "erl", seed: int = 0, count: int = 100,
                  max_tries: int = 100_000) -> Iterator[Model]:
    """Seeded random models for property tests beyond the exhaustive range.
    Reports that consume this stream should be labelled as sampled."""
    star = is_star(logic)
    rng = random.Random(seed)
    atoms = sorted(set(atoms))
    agents = sorted(sig.agents)
    produced = 0
    for _ in range(max_tries):
        if produced >= count:
            return
        extra = rng.randint(0, max_extra)
        res = sorted(sig.resources)
        carrier = tuple(res + _fresh_names(sig, extra))
        n = len(carrier)
        index = {w: i for i, w in enumerate(carrier)}
        unit_i = index[sig.unit]
        fresh_i = [index[w] for w in carrier if w not in sig.resources]
        comp = {}
        ok = True
        for i in range(n):
            for j in range(i, n):
                if unit_i in (i, j):
                    continue
                if carrier[i] in sig.resources and carrier[j] in sig.resources:
                    t = sig.compose(carrier[i], carrier[j])
                    if t is not None:
                        comp[(i, j)] = index[t]
                    elif fresh_i and rng.random() < 0.3:
                        comp[(i, j)] = rng.choice(fresh_i)
                elif rng.random() < 0.3:
                    comp[(i, j)] = rng.randrange(n)
        classmask = {}
        for a in agents:
            rgs = []
            maxid = -1
            for _i in range(n):
                b = rng.randint(0, maxid + 1)
                rgs.append(b)
                maxid = max(maxid, b)
            classmask[a] = _rgs_to_masks(tuple(rgs))
        val = {p: rng.randrange(1 << n) for p in atoms}
        m = Model(sig, carrier, comp, classmask, val,
                  _pairs_from_masks(carrier, classmask))
        if validate_model(m, "erl"):
            ok = False
        if ok and star and star_compat_violation(m) is not None:
            ok = False
        if ok:
            produced += 1
            yield m
