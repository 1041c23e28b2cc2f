"""Logical signature and formula layer.

A signature declares a finite set of agents, a finite set of resources with
a distinguished unit, and a partial commutative-associative composition on
resources.  Formulas combine the Boolean-BI connectives with six modalities,
each parametrized by an agent and a multiset of resources (the agent's local
resource).  Universal modalities are written with box brackets and
existential ones with angle brackets:

    [C a; t]   necessity over the agent's view of the ambient+local combination
    <C a; t>   its dual
    <D a; t>   possibility via a local-resource decomposition
    [D a; t]   its dual
    [E a; t]   necessity with the local resource kept on both sides
    <E a; t>   its dual

ASCII grammar (precedence: unary > * > & > | > (->, -*) right-assoc):

    formula := imp
    imp     := or (('->' | '-*') imp)?
    or      := and ('|' and)*
    and     := star ('&' star)*
    star    := unary ('*' unary)*
    unary   := '!' unary | MODAL unary | 'I' | 'top' | 'bot' | ATOM | '(' formula ')'
    MODAL   := ('[' | '<') ('C'|'D'|'E') AGENT ';' term (']' | '>')
    term    := NAME ('.' NAME)*

Atoms are identifiers; ``I``, ``top`` and ``bot`` are reserved.  Resource
terms are multisets: order is ignored and unit factors are dropped.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import (ErlError, ParseError, SignatureError, UnknownAgentError,
                     UnknownResourceError)

# Names of the form c<digits> are reserved for fresh label constants in the
# tableaux calculus; allowing them as resources would make labels ambiguous.
_RESERVED_NAME = re.compile(r"^c[0-9]+$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# ---------------------------------------------------------------------------
# Signature


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    detail: str

    def __str__(self):
        return f"{self.axiom}{self.witness}: {self.detail}"


@dataclass(frozen=True)
class Signature:
    """Agents, resources, and the syntactic partial composition.

    ``composition`` maps canonically ordered pairs (min, max) of non-unit
    resource names to their product; unit rows are implicit.
    """

    agents: frozenset[str]
    resources: frozenset[str]
    unit: str = "e"
    composition: Mapping[tuple[str, str], str] = field(default_factory=dict)

    @staticmethod
    def make(agents: Iterable[str], resources: Iterable[str], unit: str = "e",
             composition: Iterable[tuple[str, str, str]] = ()) -> "Signature":
        """Build a signature, completing commuted orientations and dropping
        redundant unit rows; raises on inconsistent rows and violated axioms."""
        res = frozenset(resources) | {unit}
        table = composition_cells(composition, unit, SignatureError)
        sig = Signature(frozenset(agents), res, unit, table)
        if violations := validate_signature(sig):
            raise SignatureError("invalid signature: " + "; ".join(map(str, violations)))
        return sig

    def __hash__(self):
        # by value, as equality is; the composition is a dict
        return hash((self.agents, self.resources, self.unit,
                     frozenset(self.composition.items())))

    def compose(self, r: str, s: str) -> str | None:
        if r == self.unit:
            return s
        if s == self.unit:
            return r
        return self.composition.get((min(r, s), max(r, s)))


def composition_cells(rows, unit, error: type[ErlError], name=str) -> dict:
    """The cells {(x, y) with x <= y: z} of the composition rows (x, y, z),
    x.y = z, one per commuted pair.  A row through ``unit`` is implicit and
    dropped, but must map to its other factor; that, or two rows giving one
    cell two values, raises ``error``, naming each world by ``name``."""
    cells: dict = {}
    for (x, y, z) in rows:
        if unit in (x, y):
            other = y if x == unit else x
            if z != other:
                raise error(f"unit row {name(x)}.{name(y)} = {name(z)} "
                            f"must map to {name(other)}")
            continue
        cell = (x, y) if x <= y else (y, x)
        if cells.setdefault(cell, z) != z:
            raise error(f"conflicting composition for {name(x)}.{name(y)}: "
                        f"{name(cells[cell])} vs {name(z)}")
    return cells


def validate_signature(sig: Signature) -> list[Violation]:
    """Check the signature axioms; returns the first witness per violated
    axiom (empty list means the signature is well formed)."""
    out = []

    def bad_name(n):
        return not n or not _NAME.match(n)

    for n in sorted(sig.resources):
        if bad_name(n):
            out.append(Violation("Name", (n,), "resource names must be identifiers"))
            break
    for n in sorted(sig.agents):
        if bad_name(n):
            out.append(Violation("Name", (n,), "agent names must be identifiers"))
            break
    for n in sorted(sig.resources):
        if _RESERVED_NAME.match(n):
            out.append(Violation("ReservedName", (n,),
                                 "names c1, c2, ... are reserved for label constants"))
            break
    if sig.unit not in sig.resources:
        out.append(Violation("Unit", (sig.unit,), "unit must be a declared resource"))
    overlap = sorted(sig.agents & sig.resources)
    if overlap:
        out.append(Violation("Disjointness", (overlap[0],),
                             "agent and resource namespaces overlap"))

    names = sig.resources
    for (r, s), t in sorted(sig.composition.items()):
        if r not in names or s not in names or t not in names:
            out.append(Violation("Table", (r, s, t), "row mentions undeclared names"))
            break

    # Commutativity is canonical by construction when built through make();
    # still check raw mappings in case the table was supplied directly.
    for (r, s), t in sorted(sig.composition.items()):
        rev = sig.composition.get((s, r))
        if (s, r) != (r, s) and rev is not None and rev != t:
            out.append(Violation("Commutativity", (r, s), f"{t} vs {rev}"))
            break
        if (r, s) != (min(r, s), max(r, s)) and sig.composition.get((min(r, s), max(r, s))) is None:
            out.append(Violation("Commutativity", (r, s), "missing commuted orientation"))
            break

    # Kleene associativity: r.(s.t) defined forces (r.s).t defined and equal.
    # Undeclared names a row mentions index the table too, but are not tried.
    order = sorted(names) + sorted(
        {w for (r, s), t in sig.composition.items() for w in (r, s, t)} - names)
    index = {w: i for i, w in enumerate(order)}
    table = [[index.get(sig.compose(r, s)) for s in order] for r in order]
    triple = associativity_witness(table, range(len(names)), index.get(sig.unit))
    if triple is not None:
        r, s, t = (order[i] for i in triple)
        out.append(Violation("Associativity", (r, s, t),
                             f"{r}.({s}.{t}) = {sig.compose(r, sig.compose(s, t))} "
                             f"but ({r}.{s}).{t} differs"))
    return out


def associativity_witness(table, elements, unit):
    """The first triple (r, s, t) of ``elements``, in loop order, with
    r.(s.t) defined but (r.s).t undefined or different; None when the
    composition is Kleene associative on them.  ``table[i][j]`` is the index
    of i.j, or None when it is undefined.  The rows of ``unit`` are the
    identity, so no triple through it is a witness, and none is tried."""
    elements = [i for i in elements if i != unit]
    for r in elements:
        row_r = table[r]
        for s in elements:
            rs, row_s = row_r[s], table[s]
            row_rs = None if rs is None else table[rs]
            for t in elements:
                st = row_s[t]
                if st is None:
                    continue
                r_st = row_r[st]
                if r_st is None:
                    continue
                if row_rs is None or row_rs[t] != r_st:
                    return (r, s, t)
    return None


def read_json(source, error: type[ErlError], lists=()) -> dict:
    """The JSON object in a dict, file object or file path.  Anything else,
    text that is not UTF-8, or a non-list (a string, say) under one of the
    keys ``lists``, raises ``error``."""
    try:
        if hasattr(source, "read"):
            source = json.load(source)
        elif isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as fh:
                source = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"malformed JSON: {exc}") from None
    if not isinstance(source, dict):
        raise error(f"expected a JSON object, got {type(source).__name__}")
    for key in lists:
        if not isinstance(source.get(key, []), list):
            raise error(f"{key!r} must be a list, got {type(source[key]).__name__}")
    return source


def json_names(value, what: str, error: type[ErlError],
               size: int | None = None) -> tuple:
    """``value``, a JSON list of names, as a tuple; ``error`` when it is
    anything else or, with ``size``, of another length."""
    if (not isinstance(value, list) or not all(isinstance(w, str) for w in value)
            or size is not None and len(value) != size):
        shape = "a list of" if size is None else f"a list of {size}"
        raise error(f"{what} must be {shape} names, got {value!r}")
    return tuple(value)


def load_signature(source) -> Signature:
    """Load a signature from a JSON file path, file object, or dict."""
    data = read_json(source, SignatureError, ("composition",))
    if "resources" not in data:
        raise SignatureError("signature file missing field 'resources'")
    unit = data.get("unit", "e")
    if not isinstance(unit, str):
        raise SignatureError(f"unit must be a name, got {unit!r}")
    return Signature.make(
        json_names(data.get("agents", []), "agents", SignatureError),
        json_names(data["resources"], "resources", SignatureError),
        unit,
        [json_names(row, "a composition row", SignatureError, 3)
         for row in data.get("composition", [])],
    )


def signature_to_json(sig: Signature) -> dict:
    return {
        "agents": sorted(sig.agents),
        "resources": sorted(sig.resources),
        "unit": sig.unit,
        "composition": [[r, s, t] for (r, s), t in sorted(sig.composition.items())],
    }


# ---------------------------------------------------------------------------
# Resource terms


@dataclass(frozen=True)
class Term:
    """A multiset of non-unit resource names; the empty term is the unit."""

    parts: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))

    def text(self, unit: str = "e") -> str:
        return ".".join(self.parts) if self.parts else unit


def term_of(names: Iterable[str], sig: Signature) -> Term:
    parts = []
    for n in names:
        if n not in sig.resources:
            raise UnknownResourceError(n)
        if n != sig.unit:
            parts.append(n)
    return Term(tuple(parts))


# ---------------------------------------------------------------------------
# Formulas

C, D, E = "C", "D", "E"
CDUAL, DDUAL, EDUAL = "Cdual", "Ddual", "Edual"
MODAL_OPS = (C, D, E, CDUAL, DDUAL, EDUAL)
BASE_OF = {CDUAL: C, DDUAL: D, EDUAL: E}

# (bracket, letter) -> modality constructor tag
_MODAL_TAG = {
    ("[", "C"): C, ("[", "D"): DDUAL, ("[", "E"): E,
    ("<", "C"): CDUAL, ("<", "D"): D, ("<", "E"): EDUAL,
}
# The universal modalities, written with box brackets: each holds when its
# body holds at every partner world.  The other three hold when the body
# holds at some partner world.
UNIVERSAL = frozenset(op for (bracket, _), op in _MODAL_TAG.items()
                      if bracket == "[")


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Unit(Formula):
    """The multiplicative unit I."""


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Star(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Wand(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Modal(Formula):
    op: str
    agent: str
    term: Term
    body: Formula

    def __post_init__(self):
        if self.op not in MODAL_OPS:
            raise ValueError(f"unknown modality {self.op!r}")


TOP = Top()
BOT = Bot()
UNIT = Unit()


def subformulas(phi: Formula) -> Iterator[Formula]:
    yield phi
    if isinstance(phi, Not):
        yield from subformulas(phi.body)
    elif isinstance(phi, (And, Or, Implies, Star, Wand)):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, Modal):
        yield from subformulas(phi.body)


def atoms_of(phi: Formula) -> set[str]:
    return {f.name for f in subformulas(phi) if isinstance(f, Atom)}


# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(r"(->|-\*|[()\[\]<>;.!&|*]|[A-Za-z_][A-Za-z0-9_]*)")
_WS = re.compile(r"\s*")

# Binary connectives, loosest first.  Each level maps its tokens to their
# formula classes and gives the levels its left and right operands are
# printed at, so "->" and "-*" associate to the right and the others to the
# left; the parser reads the right operand at that level too, and the left
# one a level tighter.  Negation, modalities and atoms are at level
# ``_LEVEL_UNARY``.
_BINARY = (({"->": Implies, "-*": Wand}, 1, 0), ({"|": Or}, 1, 2),
           ({"&": And}, 2, 3), ({"*": Star}, 3, 4))
_LEVEL_UNARY = len(_BINARY)
_BINARY_TEXT = {cls: (tok, level) for level, (ops, _, _) in enumerate(_BINARY)
                for tok, cls in ops.items()}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            pos = _WS.match(text, pos).end()
            if pos >= len(text):
                break
            m = _TOKEN.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            self.items.append((m.group(0), pos))
            pos = m.end()
        self.i = 0

    def peek(self) -> str | None:
        return self.items[self.i][0] if self.i < len(self.items) else None

    def pos(self) -> int:
        return self.items[self.i][1] if self.i < len(self.items) else len(self.text)

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.peek()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}", self.pos())
        self.next()


def parse_formula(text: str, sig: Signature) -> Formula:
    toks = _Tokens(text)
    phi = _parse_binary(toks, sig)
    if toks.peek() is not None:
        raise ParseError(f"trailing input {toks.peek()!r}", toks.pos())
    return phi


def _parse_binary(toks, sig, level: int = 0) -> Formula:
    """The formula at the cursor with no connective looser than those of
    ``_BINARY[level]``; each level costs one stack frame."""
    ops, _, right_at = _BINARY[level]
    left = (_parse_binary(toks, sig, level + 1) if level + 1 < _LEVEL_UNARY
            else _parse_unary(toks, sig))
    while (cls := ops.get(toks.peek())) is not None:
        toks.next()
        right = (_parse_binary(toks, sig, right_at) if right_at < _LEVEL_UNARY
                 else _parse_unary(toks, sig))
        left = cls(left, right)
    return left


def _parse_unary(toks, sig) -> Formula:
    tok = toks.peek()
    if tok is None:
        raise ParseError("unexpected end of input", toks.pos())
    if tok == "!":
        toks.next()
        return Not(_parse_unary(toks, sig))
    if tok in ("[", "<"):
        return _parse_modal(toks, sig)
    if tok == "(":
        toks.next()
        phi = _parse_binary(toks, sig)
        toks.expect(")")
        return phi
    if tok == "top":
        toks.next()
        return TOP
    if tok == "bot":
        toks.next()
        return BOT
    if tok == "I":
        toks.next()
        return UNIT
    if _NAME.match(tok):
        toks.next()
        return Atom(tok)
    raise ParseError(f"unexpected token {tok!r}", toks.pos())


def _parse_modal(toks, sig) -> Formula:
    bracket = toks.next()
    closing = "]" if bracket == "[" else ">"
    pos = toks.pos()
    letter = toks.next()
    if (bracket, letter) not in _MODAL_TAG:
        raise ParseError(f"expected modality letter C, D or E, got {letter!r}", pos)
    op = _MODAL_TAG[(bracket, letter)]
    pos = toks.pos()
    agent = toks.next()
    if not _NAME.match(agent):
        raise ParseError(f"expected agent name, got {agent!r}", pos)
    if agent not in sig.agents:
        raise UnknownAgentError(agent)
    toks.expect(";")
    read = [(toks.pos(), toks.next())]    # (position, name) as each is read
    while toks.peek() == ".":
        toks.next()
        read.append((toks.pos(), toks.next()))
    for pos, n in read:
        if not _NAME.match(n):
            raise ParseError(f"expected resource name, got {n!r}", pos)
    term = term_of([n for _, n in read], sig)
    toks.expect(closing)
    return Modal(op, agent, term, _parse_unary(toks, sig))


# ---------------------------------------------------------------------------
# Printer (inverse of the parser up to whitespace)

_MODAL_TEXT = {op: (bracket, letter, "]" if bracket == "[" else ">")
               for (bracket, letter), op in _MODAL_TAG.items()}


def format_formula(phi: Formula, unit: str = "e") -> str:
    return _fmt(phi, 0, unit)


def _fmt(phi: Formula, level: int, unit: str) -> str:
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Top):
        return "top"
    if isinstance(phi, Bot):
        return "bot"
    if isinstance(phi, Unit):
        return "I"
    if isinstance(phi, Not):
        return f"!{_fmt(phi.body, _LEVEL_UNARY, unit)}"
    if isinstance(phi, Modal):
        o, letter, c = _MODAL_TEXT[phi.op]
        return f"{o}{letter} {phi.agent}; {phi.term.text(unit)}{c} {_fmt(phi.body, _LEVEL_UNARY, unit)}"
    if type(phi) not in _BINARY_TEXT:
        raise TypeError(f"not a formula: {phi!r}")
    tok, mine = _BINARY_TEXT[type(phi)]
    _, left_at, right_at = _BINARY[mine]
    text = f"{_fmt(phi.left, left_at, unit)} {tok} {_fmt(phi.right, right_at, unit)}"
    return f"({text})" if mine < level else text
