"""Command-line front door.

    erl prove    --sig SIG.json "FORMULA"        exit 0 proved / 1 refuted / 2 unknown
    erl check    --model M.json "FORMULA" --at W exit 0 satisfied / 1 falsified
    erl search   --sig SIG.json "FORMULA"        exit 1 countermodel found / 0 none in bounds
    erl scenario NAME | --file S.json            exit 0 iff all expectations met

Each subcommand accepts the setting flags it reads (see erl CMD --help) and
no others, each spelled in full; the ERL_* environment variables apply to
all.  A scenario dump is JSON only, so --dump refuses --output text.  The
carrier bound counts the signature's resources: a signature with more than
4 needs --carrier-bound above the default 4.  Usage errors, unread or bad
settings and unreadable files among them, exit with 64; data errors, a
carrier bound below the resource count among them, 65.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checker import explain, find_countermodel
from .config import CHOICES, RunConfig, flag, resolve_config
from .errors import ConfigError, ErlError
from .models import load_model, model_to_json, validate_model
from .scenarios import builtin_scenario, builtin_scenarios, load_scenario, \
    run_scenario, scenario_to_json
from .syntax import load_signature, parse_formula
from .tableaux import prove

EX_USAGE = 64
EX_DATA = 65


# The settings each subcommand reads, as strings for resolve_config to parse
SETTINGS = {
    "prove": ("logic", "max_constants", "max_steps", "closure_budget", "output"),
    "check": ("logic", "output"),
    "search": ("logic", "carrier_bound", "output"),
    "scenario": ("output",),
}


def _emit(data: dict | list, cfg: RunConfig, text_lines: list[str]) -> None:
    if cfg.output == "json":
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def cmd_prove(args, cfg: RunConfig) -> int:
    sig = load_signature(args.sig)
    phi = parse_formula(args.formula, sig)
    outcome = prove(phi, sig, cfg)
    lines = [f"{outcome.verdict} in {outcome.applications} rule applications "
             f"(constant depth {outcome.depth})"]
    if outcome.refuted:
        lines.append(f"countermodel with {outcome.countermodel.n} worlds, "
                     f"falsified at {outcome.world}")
        path = args.countermodel_out
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(model_to_json(outcome.countermodel, outcome.world), fh,
                      sort_keys=True, indent=2)
        lines.append(f"countermodel written to {path}")
    if outcome.verdict == "unknown":
        lines.append(f"diagnostics: {outcome.diagnostics}")
    _emit(outcome.to_json(), cfg, lines)
    return {"proved": 0, "refuted": 1, "unknown": 2}[outcome.verdict]


def cmd_check(args, cfg: RunConfig) -> int:
    sig = load_signature(args.sig) if args.sig else None
    model, embedded_world = load_model(args.model, sig)
    world = args.at or embedded_world
    if world is None:
        raise ErlError("no world given: pass --at or embed one in the model file")
    if world not in model.index:
        raise ErlError(f"world {world!r} is not in the carrier")
    violations = validate_model(model, cfg.logic)
    if violations:
        raise ErlError("model does not validate: " + "; ".join(map(str, violations)))
    phi = parse_formula(args.formula, model.sig)
    judgment = explain(model, world, phi)
    _emit(judgment.to_json(), cfg,
          [f"{'satisfied' if judgment.verdict else 'falsified'} at {world}"])
    return 0 if judgment.verdict else 1


def cmd_search(args, cfg: RunConfig) -> int:
    sig = load_signature(args.sig)
    phi = parse_formula(args.formula, sig)
    found = find_countermodel(phi, sig, cfg.carrier_bound, cfg.logic)
    if found is None:
        _emit({"countermodel": None, "carrier_bound": cfg.carrier_bound}, cfg,
              [f"no countermodel within carrier bound {cfg.carrier_bound}"])
        return 0
    model, world = found
    data = model_to_json(model, world)
    with open(args.countermodel_out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
    _emit({"countermodel": data, "world": world}, cfg,
          [f"countermodel with {model.n} worlds, falsified at {world}",
           f"countermodel written to {args.countermodel_out}"])
    return 1


def cmd_scenario(args, cfg: RunConfig) -> int:
    if args.list:
        scenarios = builtin_scenarios()
        _emit([{"name": s.name, "description": s.description} for s in scenarios],
              cfg, [f"{s.name}: {s.description}" for s in scenarios])
        return 0
    if args.file:
        scenario = load_scenario(args.file)
    elif args.name:
        scenario = builtin_scenario(args.name)
    else:
        raise ErlError("give a scenario name or --file")
    if args.dump:
        if args.output == "text":
            raise ConfigError("--output='text': a scenario dump is JSON only")
        print(json.dumps(scenario_to_json(scenario), sort_keys=True, indent=2))
        return 0
    report = run_scenario(scenario)
    lines = [f"scenario {report.name}: {'ok' if report.ok else 'FAILED'}"]
    for e in report.entries:
        lines.append(f"  [{'pass' if e.ok else 'FAIL'}] {e.label}"
                     + (f" -- {e.detail}" if e.detail and not e.ok else ""))
    _emit(report.to_json(), cfg, lines)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="erl", description=__doc__, allow_abbrev=False,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="run the tableaux prover on a formula")
    p.add_argument("--sig", required=True, help="signature JSON file")
    p.add_argument("formula")
    p.add_argument("--countermodel-out", default="countermodel.json")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("check", help="evaluate a formula in a model")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--sig", default=None, help="signature JSON file "
                   "(optional when the model embeds one)")
    p.add_argument("formula")
    p.add_argument("--at", default=None, help="world to evaluate at")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("search", help="brute-force countermodel search")
    p.add_argument("--sig", required=True)
    p.add_argument("formula")
    p.add_argument("--countermodel-out", default="countermodel.json")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("scenario", help="run a builtin or file scenario")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--file", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--dump", action="store_true",
                   help="print the scenario as JSON instead of running it")
    p.set_defaults(fn=cmd_scenario)
    for command, parser in sub.choices.items():
        parser.allow_abbrev = False       # a flag only as registered, not a prefix
        for name in SETTINGS[command]:
            parser.add_argument(flag(name), metavar="|".join(CHOICES.get(name, ["N"])))
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args, resolve_config(vars(args)))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except ErlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EX_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
