"""Run the benchmark on every workload and append the results to a
committed trajectory file.

    python scripts/bench_append.py [--root CHECKOUT]

Each workload of ``perfbench/run.py`` runs unchanged, untraced, for
``SECONDS`` once per seed of ``SEEDS``, from the root of CHECKOUT (by
default the checkout holding this script), so the numbers measure that
checkout's ``src/``.  The seeds and the run length are fixed so that the
entries stay comparable.  One entry is appended to the JSON list in
``BENCH_trajectory.json`` next to ``scripts/``, also when CHECKOUT is
another checkout (such as the parent commit's): the checkout's git SHA
and whether its ``src/`` or ``perfbench/`` differ from that commit, a
SHA-256 of its ``src/erl/*.py``, the interpreter, and per run the seed,
the calibration factor measured just before it (``perfbench/calibrate.py``:
reference time over the median of nine timings of its fixed loop; below 1
means this core ran slower than the reference) and the run's result JSON
(its last line of output).  Exits 1 when a run fails its output checks;
the entry is still appended.
"""

import argparse
import datetime
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("prove-corpus", "oracle-sweep", "countermodel-search")
SEEDS = (7, 11)
SECONDS = 30.0
TRAJECTORY = HERE.parent / "BENCH_trajectory.json"
CALIBRATIONS = 9


def git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True)


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "erl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def calibration(root: Path) -> float:
    """The factor perfbench scales op times by, measured now."""
    code = ("import calibrate; print(calibrate.scale("
            f"[calibrate.seconds() for _ in range({CALIBRATIONS})]))")
    out = subprocess.run([sys.executable, "-c", code], cwd=root / "perfbench",
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE.parent)
    args = ap.parse_args(argv)
    root = args.root.resolve()

    head = git(root, "rev-parse", "HEAD")
    entry = {
        "sha": head.stdout.strip() if head.returncode == 0 else None,
        "dirty": git(root, "diff", "--quiet", "HEAD", "--", "src",
                     "perfbench").returncode != 0,
        "src_sha256": src_digest(root),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .isoformat(timespec="seconds"),
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "seconds": SECONDS,
        "runs": [],
    }
    ok = True
    for workload in WORKLOADS:
        for seed in SEEDS:
            factor = calibration(root)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SECONDS),
                 "--trace", "0"],
                cwd=root, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            ok = ok and proc.returncode == 0
            entry["runs"].append({"workload": workload, "seed": seed,
                                  "calibration": factor, "result": result})
            metrics = (result or {}).get("metrics", {})
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"calibration {factor:.3f}, " + ", ".join(
                      f"{k} {v['value']:.4g}" for k, v in metrics.items()),
                  flush=True)

    trajectory = (json.loads(TRAJECTORY.read_text())
                  if TRAJECTORY.exists() else [])
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"appended entry {len(trajectory)} to {TRAJECTORY}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
