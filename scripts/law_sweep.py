"""Sweep the modal interaction laws over bounded model enumerations.

    python scripts/law_sweep.py [--extra N] [--sample N] [--seed S]

With --sample the sweep runs on seeded random models instead of the
exhaustive stream (useful beyond the exhaustive range); the report labels
such runs as sampled.
"""

import argparse
import time

from erl import (Signature, enumerate_models, parse_formula, sample_models,
                 truth_set)

SIG = Signature.make(["a"], ["e", "s", "t"])

LAWS = [
    ("box composition ->", "[C a; s] [C a; t] p -> [C a; s.t] p"),
    ("box composition <-", "[C a; s.t] p -> [C a; s] [C a; t] p"),
    ("diamond collapse", "<D a; s> <D a; t> p -> <D a; t> p"),
    ("box persists", "[C a; s] p -> [D a; t] [C a; s] p"),
    ("diamond-box collapse", "<D a; t> <C a; s> p -> <C a; s> p"),
    ("dual-box composition ->", "<C a; t> <C a; s> p -> <C a; t.s> p"),
    ("dual-box composition <-", "<C a; t.s> p -> <C a; t> <C a; s> p"),
    ("iteration", "[D a; s] p -> [D a; t] [D a; s] p"),
    ("unit box = unit dual-diamond ->", "[C a; e] p -> [D a; e] p"),
    ("unit box = unit dual-diamond <-", "[D a; e] p -> [C a; e] p"),
    ("iteration converse (expected to fail)",
     "[D a; t] [D a; s] p -> [D a; s] p"),
    ("E decomposition ->", "[E a; s] p -> [C a; s] [D a; s] p"),
    ("E decomposition <-", "[C a; s] [D a; s] p -> [E a; s] p"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--extra", type=int, default=1,
                    help="fresh worlds beyond the three resources")
    ap.add_argument("--logic", default="erl-star", choices=["erl", "erl-star"])
    ap.add_argument("--sample", type=int, default=0,
                    help="check this many random models instead of all")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    parsed = [(name, parse_formula(text, SIG)) for name, text in LAWS]
    if args.sample:
        stream = sample_models(SIG, args.extra, ["p"], args.logic,
                               seed=args.seed, count=args.sample)
        mode = f"SAMPLED ({args.sample} models, seed {args.seed})"
    else:
        stream = enumerate_models(SIG, args.extra, ["p"], args.logic)
        mode = "exhaustive"

    t0 = time.time()
    counts = {name: 0 for name, _ in parsed}
    total = 0
    for m in stream:
        total += 1
        for name, phi in parsed:
            if truth_set(m, phi) != m.full_mask:
                counts[name] += 1
    elapsed = time.time() - t0
    print(f"{mode}: {total} {args.logic} models with up to {args.extra} "
          f"fresh worlds, {elapsed:.1f}s")
    width = max(len(n) for n, _ in parsed)
    for name, _ in parsed:
        verdict = "holds" if counts[name] == 0 else f"fails in {counts[name]}"
        print(f"  {name:<{width}}  {verdict}")


if __name__ == "__main__":
    main()
