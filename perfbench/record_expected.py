"""Record the prove-corpus verdicts that later runs of a seed are checked
against: one letter per formula of the seed's stream, P (proved), R
(refuted) or ? (unknown or over the deadline, so no expectation).

    python3 perfbench/record_expected.py --seed 7

It records the first COUNT formulas with a deadline of DEADLINE_S, longer
than the benchmark's, so that more formulas carry an expectation.  Every
op's output is checked as in a benchmark run.
"""

import argparse
import json
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

COUNT = 48_000
DEADLINE_S = 0.5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    workloads.install_alarm()
    w = workloads.ProveCorpus(args.seed)
    w.deadline = DEADLINE_S
    letters = []
    for rec, detail in islice(w.stream(workloads.Clock()), COUNT):
        problem = rec.problem or w.check(rec, detail)
        if problem:
            print(f"op {rec.index} {rec.text!r}: {problem}", file=sys.stderr)
            return 1
        letters.append({"proved": "P", "refuted": "R"}.get(rec.status, "?"))
    texts = [t for _, t, _ in islice(
        workloads.formula_stream(args.seed, w.sig), COUNT)]
    path = workloads.EXPECTED_DIR / f"prove-corpus-seed{args.seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "seed": args.seed, "count": COUNT, "deadline_s": DEADLINE_S,
        "texts_sha256": workloads.texts_digest(texts),
        "verdicts": "".join(letters)}) + "\n")
    print(f"{path}: {letters.count('P')} proved, {letters.count('R')} "
          f"refuted, {letters.count('?')} without expectation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
