"""Benchmark for erl: three closed-loop workloads with one client each, their
output checks, and a traced run that reports per-layer numbers.

    python3 perfbench/run.py --workload prove-corpus --seed 7 --seconds 30 --trace 0

Run it from the root of a checkout; it imports erl from ``src/``.  The
report goes to standard output and its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0
the metrics are the end-to-end ones, measured untraced; with --trace 1 they
are the per-layer ones.  The exit code is 0 when every output check passed.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".perfbench_out"

SETUP_PROBES = 9
TAIL_BEYOND = 10
# latency_tail_ms is the median of the tails of chunks of this many ops.
TAIL_CHUNK_OPS = 500
# Rounding allowed below zero in a span's self time.
SELF_TIME_SLACK_S = 1e-9


class Run:
    """What one measured stretch of a workload left behind."""

    def __init__(self, workload):
        self.workload = workload
        self.latency = array("d")   # per op, seconds at reference speed
        self.raw = array("d")       # per op, seconds as measured
        self.status: list[str] = []
        self.pass_ends: list[int] = []  # op counts at which passes ended
        self.failed = 0
        self.problems: list[str] = []
        self.deadline_hits: list[str] = []
        self.wall_s = 0.0           # op wall time so far, as measured

    def add(self, rec, detail, scale: float = 1.0) -> None:
        """Record one op and check its output.  The op's time is scaled to
        the reference speed, except on a deadline hit: the deadline is wall
        time and costs the same on any core."""
        self.raw.append(rec.latency)
        self.latency.append(rec.latency if rec.status == "deadline"
                            else rec.latency * scale)
        self.wall_s += rec.latency
        self.status.append(rec.status)
        if rec.status == "deadline":
            self.deadline_hits.append(f"{rec.logic}: {rec.text}")
        problem = rec.problem or self.workload.check(rec, detail)
        if problem:
            self.failed += 1
            self.problems.append(f"op {rec.index} {rec.text!r} {rec.logic}: "
                                 f"{problem}")
        if rec.ends_pass:
            self.pass_ends.append(len(self.latency))

    def finish(self) -> None:
        late = self.workload.finish()
        self.failed += len(late)
        self.problems += late


def measure(workload, seconds: float) -> Run:
    """Pull ops until their wall time reaches ``seconds`` at the end of a
    pass over the workload's inputs."""
    import workloads
    run = Run(workload)
    clock = workloads.Clock(calibrated=True)
    stream = workload.stream(clock)
    for rec, detail in stream:
        run.add(rec, detail, clock.scale)
        if rec.ends_pass and run.wall_s >= seconds:
            break
    stream.close()
    run.finish()
    return run


def tail_latency(sorted_lat) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, or the maximum when too few."""
    n = len(sorted_lat)
    if n <= TAIL_BEYOND:
        return sorted_lat[-1], 100.0, 0
    return sorted_lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, \
        TAIL_BEYOND


def measure_setup(name: str) -> tuple[list[float], list[float]]:
    """Set-up seconds from SETUP_PROBES fresh processes, after one unmeasured
    process that leaves the byte-code caches warm: (at reference speed, as
    measured)."""
    import calibrate
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name]
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            setup_s, *samples = map(float, done.stdout.split())
            raw.append(setup_s)
            scaled.append(setup_s * calibrate.scale(samples))
    return scaled, raw


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_problems(runs) -> None:
    """Print every failed check before any metric is computed, so that a
    fault's traceback is shown even if the metrics cannot be."""
    for run in runs:
        for p in run.problems:
            print(f"  CHECK FAILED: {p}")


def end_to_end(name: str, seed: int, seconds: float) -> tuple[Run, dict]:
    import workloads
    setup, setup_raw = measure_setup(name)
    run = measure(workloads.WORKLOADS[name](seed), seconds)
    rss = peak_rss_mb()
    print_problems([run])
    attempted = len(run.latency)
    if workloads.WORKLOADS[name].whole_passes and run.pass_ends:
        # The median over passes of each pass's median does not depend on
        # how many passes fit in the run, and one slow pass moves it less.
        p50 = statistics.median(
            statistics.median(run.latency[a:b])
            for a, b in zip([0] + run.pass_ends[:-1], run.pass_ends))
    else:
        p50 = statistics.median(run.latency)
    # The slowest ops are rare, and which of them a seed draws or a
    # scheduling hiccup hits varies, so the run is cut into chunks of
    # TAIL_CHUNK_OPS ops: the median of their tails moves less than the
    # tail of the whole run.  Ops cut by the deadline took the benchmark's
    # limit, not the program's time, and are left out.
    chunks = [(a, a + TAIL_CHUNK_OPS) for a in
              range(0, attempted - TAIL_CHUNK_OPS + 1, TAIL_CHUNK_OPS)] \
        or [(0, attempted)]
    decided_lat = [sorted(t for t, s in zip(run.latency[a:b],
                                            run.status[a:b])
                          if s != workloads.DEADLINE) for a, b in chunks]
    tails = sorted(tail_latency(lat) for lat in decided_lat if lat) \
        or [(0.0, 100.0, 0)]
    tail, pct, beyond = tails[(len(tails) - 1) // 2]
    counts = {s: run.status.count(s) for s in sorted(set(run.status))}
    decided = sum(counts.get(s, 0)
                  for s in workloads.WORKLOADS[name].decided)
    wall = sum(run.latency)
    hits_s = sum(t for t, s in zip(run.latency, run.status)
                 if s == workloads.DEADLINE)
    print(f"{name} seed {seed}: {attempted} ops in {run.wall_s:.3f} s of op "
          f"wall time, {wall:.3f} s at reference speed, {hits_s:.3f} s of it "
          f"in deadline hits; {counts}")
    print(f"  as measured: ops_per_s {(attempted - run.failed) / run.wall_s:.4g}"
          f", latency_p50_ms {statistics.median(run.raw) * 1e3:.4g}, setup_s "
          f"{statistics.median(setup_raw):.4g}")
    print(f"  tail of each of the {len(tails)} chunks (ms), sorted: "
          f"{[round(t[0] * 1e3, 3) for t in tails]}")
    print(f"  setup_s per fresh process, at reference speed: "
          f"{[round(t, 4) for t in setup]}")
    print(f"  latency_tail_ms is the median chunk's tail: p{pct:.3f} of the "
          f"chunk's ops that ended before the deadline, {beyond} samples "
          f"beyond it")
    print(f"  failed_frac = {run.failed / attempted:.6f}, unknown_frac = "
          f"{counts.get('unknown', 0) / attempted:.6f}, deadline hits = "
          f"{len(run.deadline_hits)}")
    for line in run.deadline_hits:
        print(f"  deadline hit: {line}", file=sys.stderr)
    return run, {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric((attempted - run.failed) / wall, "1/s"),
        "latency_p50_ms": metric(p50 * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "decided_frac": metric(decided / attempted, "frac"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def per_layer(name: str, seed: int, seconds: float) -> tuple[list[Run], dict]:
    """Run each op untraced and then traced, for half the time each; the
    difference in their wall time is the tracing overhead."""
    import workloads
    from tracer import FIELDS, SPANS, Tracer
    cls = workloads.WORKLOADS[name]
    plain, traced = Run(cls(seed)), Run(cls(seed))
    tracer = Tracer()
    plain_ops = plain.workload.stream(workloads.Clock())
    traced_ops = traced.workload.stream(workloads.Clock(tracer))
    # Each op runs untraced, then again traced, so that both copies meet
    # the same machine load.
    for rec, detail in plain_ops:
        plain.add(rec, detail)
        tracer.install()
        try:
            traced.add(*next(traced_ops))
        finally:
            tracer.uninstall()
        if rec.ends_pass and plain.wall_s >= seconds / 2:
            break
    for ops, run in ((plain_ops, plain), (traced_ops, traced)):
        ops.close()
        run.finish()
    self_s, lowest = tracer.self_times()
    if lowest < -SELF_TIME_SLACK_S:
        # Child spans must lie inside their parent; a negative self time
        # means the spans are inconsistent and every self time is suspect.
        traced.failed += 1
        traced.problems.append(f"a span has self time {lowest:.6g} s")
    print_problems([plain, traced])
    n = len(plain.latency)

    both = [(a, b) for a, b, sa, sb in zip(plain.latency, traced.latency,
                                           plain.status, traced.status)
            if "deadline" not in (sa, sb) and "error" not in (sa, sb)]
    base = sum(a for a, _ in both)
    overhead = (sum(b for _, b in both) - base) / base if base else 0.0
    gap = (tracer.ops_wall - sum(self_s.values())) / tracer.ops_wall
    calls = dict(zip(SPANS, tracer.calls))
    c = tracer.count

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "syntax.parse_s": metric(self_s["syntax.parse"], "s"),
        "syntax.parse_calls": metric(calls["syntax.parse"], "count"),
        "tableaux.self_s": metric(self_s["tableaux.prove"], "s"),
        "tableaux.applications": metric(c["applications"], "count"),
        "tableaux.attempts": metric(c["attempts"], "count"),
        "labels.add_s": metric(self_s["labels.add"], "s"),
        "labels.add_calls": metric(calls["labels.add"], "count"),
        "labels.facts_max": metric(c["facts_max"], "count"),
        "labels.clone_s": metric(self_s["labels.clone"], "s"),
        "labels.clone_calls": metric(calls["labels.clone"], "count"),
        "labels.explain_s": metric(self_s["labels.explain"], "s"),
        "labels.budget_hit_frac": metric(
            ratio(c["budget_hits"], calls["tableaux.prove"]), "frac"),
        "hintikka.check_s": metric(self_s["hintikka.check"], "s"),
        "hintikka.extract_s": metric(self_s["hintikka.extract"], "s"),
        "hintikka.verify_s": metric(self_s["hintikka.verify"], "s"),
        "hintikka.extract_calls": metric(calls["hintikka.extract"], "count"),
        "hintikka.verified_frac": metric(
            ratio(c["refuted"], calls["hintikka.extract"]), "frac"),
        "models.enum_s": metric(self_s["models.enum"], "s"),
        "models.models": metric(c["models"], "count"),
        "models.frames": metric(c["frames"], "count"),
        "models.models_per_frame": metric(ratio(c["models"], c["frames"]),
                                          "models/frame"),
        "checker.eval_s": metric(self_s["checker.eval"], "s"),
        "checker.eval_calls": metric(calls["checker.eval"], "count"),
        "checker.search_s": metric(self_s["checker.search"], "s"),
        "checker.models_to_witness": metric(
            ratio(c["models_to_witness"], c["found"]), "models"),
        "checker.witness_frac": metric(
            ratio(c["found"], calls["checker.search"]), "frac"),
        "trace_overhead_frac": metric(overhead, "frac"),
        "trace_gap_frac": metric(gap, "frac"),
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{name}.csv"
    tracer.write(spans)
    print(f"{name} seed {seed}: {n} ops untraced in {plain.wall_s:.3f} s, "
          f"the same ops traced in {traced.wall_s:.3f} s; "
          f"{len(tracer.spans) // len(FIELDS)} spans written to "
          f"{spans.relative_to(HERE.parent)}")
    print(f"  self time by span (s): "
          f"{ {k: round(v, 4) for k, v in self_s.items()} }")
    print(f"  traced op wall time {tracer.ops_wall:.4f} s; share outside "
          f"every span {gap:.4f}; tracing overhead {overhead:.4f}")
    return [plain, traced], out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["prove-corpus", "oracle-sweep",
                             "countermodel-search"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="op wall time to measure (split in half when traced)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "erl" / "__init__.py").is_file():
        print("error: src/erl not found next to perfbench/; run from the "
              "root of an erl checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    workloads.install_alarm()

    if args.trace:
        runs, metrics = per_layer(args.workload, args.seed, args.seconds)
    else:
        run, metrics = end_to_end(args.workload, args.seed, args.seconds)
        runs = [run]
    problems = [p for r in runs for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": sum(len(r.latency) for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
