"""Signed labelled formulas and the four conditions that close a branch.

A branch closes when it holds

    1. T phi : x and F phi : y with x ~ y in its closure (a clash),
    2. F I : x with x ~ e,
    3. F top : x, or
    4. T bot : x.

``closing_witness`` tests one signed formula against a branch and
``branch_witness`` scans a whole branch with it.  Which witness is reported
when several exist shows in proof traces and Hintikka verdicts, so the order
of the tests is fixed: a new formula is tested against conditions 3, 4, 2, 1;
a branch scan looks for each condition in turn, 1 to 4.  Within a condition,
formulas and labels are tried in the order of the T and F maps given: a
tableau branch passes its own, the Hintikka check passes sorted ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .labels import EPSILON, label_str
from .syntax import Bot, Formula, Top, Unit, format_formula

T, F = "T", "F"


@dataclass(frozen=True)
class SignedFormula:
    sign: str
    formula: Formula
    label: tuple

    def text(self, unit: str = "e") -> str:
        return f"{self.sign} {format_formula(self.formula, unit)} : {label_str(self.label)}"


# the one signed formula each of conditions 2-4 is about
_SUBJECT = {2: (F, Unit()), 3: (F, Top()), 4: (T, Bot())}
_KIND = {2: "F_I", 3: "F_top", 4: "T_bot"}


def closing_witness(sign: str, phi: Formula, x, t_map: dict, f_map: dict,
                    closure, conditions=(3, 4, 2, 1)):
    """Witness of the first of ``conditions`` that ``sign phi : x`` meets on
    a branch whose T and F formulas map to their labels, else None.  Clash
    partners are tried in map order.

    Witnesses are ("clash", phi, x, y) with T phi : x and F phi : y, or
    (kind, signed formula) with kind "F_I", "F_top" or "T_bot".
    """
    for n in conditions:
        if n == 1:
            for y in (f_map if sign == T else t_map).get(phi, ()):
                a, b = (x, y) if sign == T else (y, x)
                if closure.has_res(a, b):
                    return ("clash", phi, a, b)
        elif (sign, phi) == _SUBJECT[n] and (n != 2 or closure.has_res(x, EPSILON)):
            return (_KIND[n], SignedFormula(sign, phi, x))
    return None


def branch_witness(t_map: dict, f_map: dict, closure):
    """Witness of the lowest-numbered condition the branch meets, else None.
    Formulas and labels are tried in map order."""
    for phi, xs in t_map.items():
        if phi not in f_map:
            continue
        for x in xs:
            w = closing_witness(T, phi, x, t_map, f_map, closure, (1,))
            if w is not None:
                return w
    for n in (2, 3, 4):
        sign, phi = _SUBJECT[n]
        for x in (t_map if sign == T else f_map).get(phi, ()):
            w = closing_witness(sign, phi, x, t_map, f_map, closure, (n,))
            if w is not None:
                return w
    return None


def describe_closure_witness(witness: tuple, unit: str = "e") -> dict:
    kind = witness[0]
    if kind == "clash":
        _, phi, x, y = witness
        return {"condition": 1, "formula": format_formula(phi, unit),
                "labels": [label_str(x), label_str(y)]}
    if kind == "F_I":
        return {"condition": 2, "label": label_str(witness[1].label)}
    if kind == "F_top":
        return {"condition": 3, "label": label_str(witness[1].label)}
    return {"condition": 4, "label": label_str(witness[1].label)}
