"""Run configuration: search budgets, logic selection, output control.

Every setting is a field of ``RunConfig``, parsed, checked and defaulted
here.  Its flag is the field name with dashes (``--max-constants``), its
environment variable the name uppercased with the prefix ``ERL_``
(``ERL_MAX_CONSTANTS``).  The variables override the defaults; CLI flags,
strings as the variables are, override both.  A value that does not parse
or is out of range raises ``ConfigError`` naming its source.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

ERL = "erl"
ERL_STAR = "erl-star"

_LOGICS = (ERL, ERL_STAR)
# the names each named setting accepts; the other settings take integers
CHOICES = {"logic": _LOGICS, "output": ("text", "json")}


def is_star(logic: str) -> bool:
    if logic not in _LOGICS:
        raise ValueError(f"unknown logic {logic!r}; expected one of {_LOGICS}")
    return logic == ERL_STAR


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run.  The budgets never fail a computation, they
    truncate it and set a flag: ``max_constants`` caps the fresh label
    constants of a proof search, ``max_steps`` its rule applications,
    ``closure_budget`` the cardinality of the labels the constraint closure
    builds, and ``carrier_bound`` the worlds of a searched countermodel."""

    logic: str = ERL
    max_constants: int = 8
    max_steps: int = 10_000
    closure_budget: int = 6
    carrier_bound: int = 4
    output: str = "text"

    def __post_init__(self):
        is_star(self.logic)
        if (self.max_constants < 0 or self.max_steps <= 0
                or self.closure_budget < 1 or self.carrier_bound < 1):
            raise ValueError("budgets must be positive")
        if self.output not in CHOICES["output"]:
            raise ValueError(f"unknown output mode {self.output!r}")


_OPTIONS = tuple(f.name for f in fields(RunConfig))


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse(name: str, value: str):
    if name in CHOICES:
        return value
    try:
        return int(value)
    except ValueError:
        raise ValueError("not an integer") from None


def resolve_config(flags=None) -> RunConfig:
    """``RunConfig()`` with the ``ERL_*`` environment variables applied,
    then the non-None entries of the ``flags`` mapping (strings, as the
    variables' values); flags win.  Empty variables count as unset."""
    flags = flags or {}
    settings = [(f"ERL_{name.upper()}", name,
                 os.environ.get(f"ERL_{name.upper()}") or None)
                for name in _OPTIONS]
    settings += [(flag(name), name, flags.get(name))
                 for name in _OPTIONS]
    cfg = RunConfig()
    for source, name, value in settings:
        if value is None:
            continue
        try:
            cfg = replace(cfg, **{name: _parse(name, value)})
        except ValueError as exc:
            raise ConfigError(f"{source}={value!r}: {exc}") from None
    return cfg
