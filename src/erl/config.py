"""Run configuration: search budgets, logic selection, output control.

Every setting is parsed, checked and defaulted here.  Environment variables
with the prefix ``ERL_`` (e.g. ``ERL_MAX_CONSTANTS``) override the defaults;
CLI flags, strings as the variables are, override both.  A value that does
not parse or is out of range raises ``ConfigError`` naming its source.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

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
class Budget:
    """Resource limits for proof search and constraint saturation.

    ``closure_max_card`` bounds the cardinality of labels produced by
    closure rules.  Budgets never fail a computation, they truncate it and
    set a flag.
    """

    max_constants: int = 8
    max_steps: int = 10_000
    closure_max_card: int = 6

    def __post_init__(self):
        if (self.max_constants < 0 or self.max_steps <= 0
                or self.closure_max_card < 1):
            raise ValueError("budgets must be positive")


@dataclass(frozen=True)
class RunConfig:
    logic: str = ERL
    budget: Budget = field(default_factory=Budget)
    carrier_bound: int = 4
    output: str = "text"

    def __post_init__(self):
        is_star(self.logic)
        if self.carrier_bound < 1:
            raise ValueError("budgets must be positive")
        if self.output not in CHOICES["output"]:
            raise ValueError(f"unknown output mode {self.output!r}")


# Override names: the flag is --max-steps for max_steps, the variable
# ERL_MAX_STEPS.  Budget fields are set on RunConfig.budget.
_OPTIONS = ("max_constants", "max_steps", "closure_budget", "carrier_bound",
            "logic", "output")
_BUDGET_FIELD = {"max_constants": "max_constants", "max_steps": "max_steps",
                 "closure_budget": "closure_max_card"}


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
            value = _parse(name, value)
            if name in _BUDGET_FIELD:
                budget = replace(cfg.budget, **{_BUDGET_FIELD[name]: value})
                cfg = replace(cfg, budget=budget)
            else:
                cfg = replace(cfg, **{name: value})
        except ValueError as exc:
            raise ConfigError(f"{source}={value!r}: {exc}") from None
    return cfg
