"""Fingerprint the JSON of ``prove`` and of ``find_countermodel`` over the
benchmark's formula corpus.

    python scripts/json_parity.py [--root CHECKOUT]

For the first ``COUNT`` formulas of each ``prove-corpus`` stream of
``perfbench/corpus.py`` at the seeds of ``SEEDS`` (agents a, b, resources
e, r, s, logics alternating, default ``RunConfig``), prints one line

    seed index verdict sha256 bare-sha256

where sha256 is that of ``json.dumps(prove(...).to_json(), sort_keys=True)``
and bare-sha256 that of the same JSON with every ``*_derivation`` field
dropped, so that a change to derivation chains alone shows as such.
Then, for the first ``COUNT`` formulas of each ``countermodel-search``
stream at the same seeds (agent a, resources e, r, s, carrier bound 4,
logics alternating), prints one line

    search seed index found|none sha256

where sha256 is that of the sorted-key JSON of ``model_to_json(m, world)``
for the countermodel found, or of ``null``.  Each formula gets ``CAP_S``
seconds of wall time; one that reaches it prints ``seed index cap`` (or
``search seed index cap``).

With ``--root`` the listing is made for the checkout holding this script
and for CHECKOUT (such as the parent commit's), each from its own ``src/``
and ``perfbench/``; the script then prints only the lines that differ, the
checkout's line after this one's, then on stderr how many differ, how many
of those differ only in derivations (in sha256 but not in bare-sha256) and
how many reached the cap on each side, and exits 1 if any differ.  A formula
near the cap can differ by timing alone, so each formula that reached it on
one side only is first run again on both sides with ``RECHECK`` times the
cap, and its new lines stand in for the old.
"""

import argparse
import hashlib
import json
import signal
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (7, 11)
COUNT = 1500
CAP_S = 2.0
RECHECK = 5

# Run in a fresh interpreter: put a checkout's packages first on the path,
# then print the listing with this file's code, for the formulas named by
# the remaining arguments, if any.
_CHILD = ("import sys; sys.path[:0] = sys.argv[1:4]; "
          "import json_parity; json_parity.print_listing(sys.argv[4:])")


class Cap(BaseException):
    """Raised by SIGALRM; a BaseException so the prover cannot swallow it."""


def _on_alarm(signum, frame):
    raise Cap()


def _capped(fn, cap_s: float):
    """``fn()``, or ``Cap`` once it has run ``cap_s`` seconds."""
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        out = fn()
        signal.setitimer(signal.ITIMER_REAL, 0)
        return out
    except Cap:     # the one-shot timer has fired: nothing to cancel
        return Cap


def _sha256(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def _without_derivations(data):
    """``data`` with every ``*_derivation`` field dropped, at any depth."""
    if isinstance(data, dict):
        return {k: _without_derivations(v) for k, v in data.items()
                if not k.endswith("_derivation")}
    if isinstance(data, list):
        return [_without_derivations(v) for v in data]
    return data


def _bare(line: str) -> str:
    """A listing line without its full sha256: prove lines keep their
    bare-sha256, the other lines are unchanged."""
    parts = line.split()
    return line if parts[0] == "search" else " ".join(parts[:3] + parts[4:])


def _key(line: str) -> str:
    """The formula a listing line is about: "seed index" or "search seed index"."""
    parts = line.split()
    return " ".join(parts[:3] if parts[0] == "search" else parts[:2])


def print_listing(only=()) -> None:
    """Print the listing for the ``erl`` and ``corpus`` modules on the path;
    with ``only``, just the lines of the formulas whose ``_key`` it holds,
    each with ``RECHECK`` times the cap."""
    # imported here, after the caller has put a checkout first on the path
    from corpus import formula_stream
    from erl import (RunConfig, Signature, find_countermodel, model_to_json,
                     parse_formula, prove)

    signal.signal(signal.SIGALRM, _on_alarm)
    only = set(only)
    cap_s = CAP_S * RECHECK if only else CAP_S
    sig = Signature.make(["a", "b"], ["e", "r", "s"])
    for seed in SEEDS:
        for i, text, logic in islice(formula_stream(seed, sig), COUNT):
            if only and f"{seed} {i}" not in only:
                continue
            out = _capped(lambda: prove(parse_formula(text, sig), sig,
                                        RunConfig(logic=logic)), cap_s)
            if out is Cap:
                print(seed, i, "cap", flush=True)
            else:
                data = out.to_json()
                print(seed, i, out.verdict, _sha256(data),
                      _sha256(_without_derivations(data)), flush=True)
    sig = Signature.make(["a"], ["e", "r", "s"])
    for seed in SEEDS:
        for i, text, logic in islice(formula_stream(seed, sig), COUNT):
            if only and f"search {seed} {i}" not in only:
                continue
            found = _capped(lambda: find_countermodel(parse_formula(text, sig),
                                                      sig, 4, logic), cap_s)
            if found is Cap:
                print("search", seed, i, "cap", flush=True)
            else:
                print("search", seed, i, "none" if found is None else "found",
                      _sha256(None if found is None else model_to_json(*found)),
                      flush=True)


def listing(root: Path, out=None, only=()) -> subprocess.Popen:
    paths = [str(root / "src"), str(root / "perfbench"), str(HERE)]
    return subprocess.Popen([sys.executable, "-c", _CHILD, *paths, *only],
                            stdout=out)


def _listings(roots, only=()) -> list | None:
    """The lines of each checkout's listing, made side by side, one process
    each; None when one fails."""
    files = [tempfile.TemporaryFile("w+") for _ in roots]
    procs = [listing(root, f, only) for root, f in zip(roots, files)]
    codes = [p.wait() for p in procs]
    lines = []
    for f in files:
        f.seek(0)
        lines.append(f.read().splitlines())
        f.close()
    return None if any(codes) else lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", type=Path,
                    help="another checkout to compare against")
    args = ap.parse_args()
    if args.root is None:
        return listing(HERE.parent).wait()
    roots = (HERE.parent, args.root)
    listings = _listings(roots)
    if listings is None or len(listings[0]) != len(listings[1]):
        print("a listing failed or was cut short", file=sys.stderr)
        return 1
    ours, theirs = listings
    caps = [sum(line.endswith(" cap") for line in lines) for lines in listings]
    flips = [_key(a) for a, b in zip(ours, theirs)
             if a.endswith(" cap") != b.endswith(" cap")]
    if flips:
        again = _listings(roots, flips)
        if again is None or not all(len(lines) == len(flips) for lines in again):
            print("a re-run failed or was cut short", file=sys.stderr)
            return 1
        rerun = {_key(a): (a, b) for a, b in zip(*again)}
        ours, theirs = zip(*(rerun.get(_key(a), (a, b)) for a, b in zip(ours, theirs)))
    differ = [(a, b) for a, b in zip(ours, theirs) if a != b]
    for a, b in differ:
        print(a)
        print(b)
    bare = sum(_bare(a) != _bare(b) for a, b in differ)
    print(f"{len(differ)} of {len(ours)} lines differ, {bare} of them without "
          f"derivations and {len(differ) - bare} in derivations only; "
          f"{caps[0]} and {caps[1]} "
          f"formulas reached the cap, {len(flips)} on one side only (run again "
          f"with a {CAP_S * RECHECK:g} s cap)", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
