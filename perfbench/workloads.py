"""The three workloads: program-side state, op streams and output checks.

Every workload is a single-threaded closed loop with one client: the next op
starts when the previous one has returned.  ``stream`` yields one ``Record``
per op; the runner decides when to stop pulling.  Calls into erl go through
module attributes (``syntax.parse_formula``, ``tableaux.prove``, ...) so that
a ``Tracer`` installed on those attributes sees them.

Output checks run in ``check`` and ``finish``, outside every op's timing.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import traceback
from collections import deque
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from time import perf_counter

import calibrate
from erl import RunConfig, Signature, checker, models, syntax, tableaux
from corpus import LOGICS, formula_stream

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


class DeadlineHit(BaseException):
    """Raised by SIGALRM; a BaseException so no ``except Exception`` in the
    program can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineHit()


def install_alarm() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


# Wall-clock limit per prove or search op.  An op that reaches it ends
# undecided, like an ``unknown`` verdict; it is not a failure.  NOTES.md says
# why the limit is this low.
OP_DEADLINE_S = 0.05
DEADLINE = "deadline"


@dataclass
class Record:
    index: int
    latency: float
    status: str                 # verdict, "checked", "deadline" or "error"
    problem: str | None = None  # set when the op failed
    ends_pass: bool = True      # a run may stop after this op
    text: str = ""
    logic: str = ""


# With calibration on, the clock times calibrate.work before an op once this
# much op time has passed since it last did, and scales by the median of the
# last CALIBRATION_WINDOW timings: the core's speed holds for seconds, and
# the median drops a timing hit by a scheduling hiccup.
CALIBRATE_EVERY_S = 0.01
CALIBRATION_WINDOW = 9


class Clock:
    """Times one op, enforces the per-op deadline and tells the tracer.
    With ``calibrated``, ``scale`` is the factor from the op's measured
    time to its time at the reference speed of calibrate.py; without, it is
    1."""

    def __init__(self, tracer=None, calibrated: bool = False):
        self.tracer = tracer
        self.n = 0
        self.samples = deque(maxlen=CALIBRATION_WINDOW) if calibrated \
            else None
        self.since_sample = CALIBRATE_EVERY_S
        self.scale = 1.0

    def run(self, fn, deadline: float | None = None):
        """(latency_s, result, fault); fault is None, DEADLINE on a deadline
        hit, or the formatted traceback when ``fn`` raised."""
        if self.samples is not None and \
                self.since_sample >= CALIBRATE_EVERY_S:
            self.samples.append(calibrate.seconds())
            self.scale = calibrate.scale(self.samples)
            self.since_sample = 0.0
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(self.n)
        self.n += 1
        result = fault = None
        t0 = perf_counter()
        try:
            if deadline:
                signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                result = fn()
            finally:
                if deadline:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineHit:
            fault = DEADLINE
        except Exception:
            fault = traceback.format_exc()
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op(t1, t1 - t0)
        self.since_sample += t1 - t0
        return t1 - t0, result, fault


def faulted(rec: Record, fault: str) -> Record:
    if fault == DEADLINE:
        rec.status = DEADLINE
    else:
        rec.status, rec.problem = "error", fault
    return rec


# ---------------------------------------------------------------------------
# prove-corpus


class ProveCorpus:
    """Seeded depth-3 formulas over agents a, b, resources e, r, s and atoms
    p, q, with duals; each op parses one and proves it, logics alternating."""

    name = "prove-corpus"
    decided = ("proved", "refuted")
    whole_passes = False
    deadline = OP_DEADLINE_S

    def __init__(self, seed: int):
        self.seed = seed
        self.sig = Signature.make(["a", "b"], ["e", "r", "s"])
        self.configs = {logic: RunConfig(logic=logic) for logic in LOGICS}
        self.verdicts: list[tuple[int, str]] = []

    def stream(self, clock: Clock):
        sig = self.sig
        for i, text, logic in formula_stream(self.seed, sig):
            config = self.configs[logic]

            def op():
                phi = syntax.parse_formula(text, sig)
                return phi, tableaux.prove(phi, sig, config)

            latency, result, fault = clock.run(op, self.deadline)
            rec = Record(i, latency, "", text=text, logic=logic)
            if fault is not None:
                yield faulted(rec, fault), None
                continue
            phi, out = result
            rec.status = out.verdict
            yield rec, (phi, out)

    def check(self, rec: Record, detail) -> str | None:
        if detail is None:
            return None
        phi, out = detail
        if out.verdict in ("proved", "refuted"):
            self.verdicts.append((rec.index, out.verdict))
        if out.refuted:
            m, world = out.countermodel, out.world
            if models.validate_model(m, rec.logic):
                return "refuted without a valid countermodel"
            if world is None or checker.satisfies(m, world, phi):
                return "countermodel does not falsify the formula"
        elif out.proved:
            # Sound proofs have no countermodel over the three resources.
            if checker.find_countermodel(phi, self.sig, 3, rec.logic):
                return "proved, but the oracle has a countermodel"
        return None

    def finish(self) -> list[str]:
        """Verdicts must not flip between proved and refuted against the
        recorded expectation for this seed, when one exists.  The report
        says how many verdicts the check covered."""
        path = EXPECTED_DIR / f"prove-corpus-seed{self.seed}.json"
        if not path.exists():
            print(f"  flip check: no {path.name}; {len(self.verdicts)} "
                  f"verdicts unchecked")
            return []
        expected = json.loads(path.read_text())
        count = expected["count"]
        texts = [t for _, t, _ in islice(formula_stream(self.seed, self.sig),
                                         count)]
        if texts_digest(texts) != expected["texts_sha256"]:
            return [f"{path.name}: the formula generator no longer produces "
                    f"the recorded corpus"]
        problems = []
        checked = past = 0
        for index, verdict in self.verdicts:
            if index >= count:
                past += 1
                continue
            want = {"P": "proved", "R": "refuted"}.get(
                expected["verdicts"][index])
            if want is None:
                continue
            checked += 1
            if want != verdict:
                problems.append(f"op {index} {texts[index]!r}: {verdict}, "
                                f"recorded {want}")
        print(f"  flip check: {checked} of {len(self.verdicts)} verdicts "
              f"checked against {path.name}; {past} past its {count} "
              f"formulas unchecked")
        return problems


def texts_digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# oracle-sweep

# One model check takes about 0.07 ms, well below the scheduling hiccups of
# a shared machine (4 to 10 ms), and frames hold very different numbers of
# models, so per-frame latencies are bimodal.  An op of a fixed number of
# models is long enough to time and has a smooth latency distribution.
MODELS_PER_OP = 200

# Copies of the acceptance tests' formula sets, so that edits to the tests
# cannot change the workload.
LAWS_STAR = [
    "[C a; s] [C a; t] p -> [C a; s.t] p",
    "[C a; s.t] p -> [C a; s] [C a; t] p",
    "<D a; s> <D a; t> p -> <D a; t> p",
    "[C a; s] p -> [D a; t] [C a; s] p",
    "<D a; t> <C a; s> p -> <C a; s> p",
    "<C a; t> <C a; s> p -> <C a; t.s> p",
    "<C a; t.s> p -> <C a; t> <C a; s> p",
    "[D a; s] p -> [D a; t] [D a; s] p",
    "[C a; e] p -> [D a; e] p",
    "[D a; e] p -> [C a; e] p",
]
LAW6_CONVERSE = "[D a; t] [D a; s] p -> [D a; s] p"
KT45 = [
    "[C a; e] (p -> q) -> ([C a; e] p -> [C a; e] q)",
    "[C a; e] p -> p",
    "[C a; e] p -> [C a; e] [C a; e] p",
    "!([C a; e] p) -> [C a; e] !([C a; e] p)",
]


@dataclass
class Sweep:
    name: str
    sig: Signature
    logic: str
    max_extra: int
    atoms: tuple
    formulas: dict              # text -> parsed formula
    expect_models: int
    expect_violations: dict     # text -> count


class OracleSweep:
    """The exhaustive sweeps of acceptance criteria 3 and 8, one after the
    other, again and again.  An op checks the next MODELS_PER_OP enumerated
    models, each against the sweep's whole formula set with one shared
    truth-set cache.  The seed picks which sweep goes first and the order of
    each formula set."""

    name = "oracle-sweep"
    decided = ("checked",)
    # A run stops only after a whole cycle of both sweeps, so that every run
    # checks the same models.
    whole_passes = True

    def __init__(self, seed: int):
        self.seed = seed
        sig_st = Signature.make(["a"], ["e", "s", "t"])
        sig_el = Signature.make(["a"], ["e"])
        self.sweeps = [
            Sweep("criterion-3", sig_st, "erl-star", 1, ("p",),
                  {f: syntax.parse_formula(f, sig_st)
                   for f in LAWS_STAR + [LAW6_CONVERSE]},
                  1200, {**{f: 0 for f in LAWS_STAR}, LAW6_CONVERSE: 324}),
            Sweep("criterion-8", sig_el, "erl", 3, ("p", "q"),
                  {f: syntax.parse_formula(f, sig_el) for f in KT45},
                  170_716, {f: 0 for f in KT45}),
        ]
        self.completed: list[tuple[Sweep, int, dict]] = []

    def stream(self, clock: Clock):
        rng = random.Random(self.seed)
        order = self.sweeps[self.seed % 2:] + self.sweeps[:self.seed % 2]
        index = 0
        while True:
            for sweep in order:
                texts = list(sweep.formulas)
                rng.shuffle(texts)
                parsed = [sweep.formulas[t] for t in texts]
                gen = models.enumerate_models(sweep.sig, sweep.max_extra,
                                              sweep.atoms, sweep.logic)
                count = 0
                violations = dict.fromkeys(texts, 0)
                exhausted = False

                def op():
                    """Check the next MODELS_PER_OP models of the stream."""
                    nonlocal exhausted
                    n = 0
                    bad = [0] * len(parsed)
                    for m in islice(gen, MODELS_PER_OP):
                        n += 1
                        cache = {}
                        full = m.full_mask
                        for k, phi in enumerate(parsed):
                            if checker.truth_set(m, phi, cache) != full:
                                bad[k] += 1
                    exhausted = n < MODELS_PER_OP
                    return n, bad

                while True:
                    latency, result, fault = clock.run(op)
                    rec = Record(index, latency, "checked", text=sweep.name)
                    index += 1
                    if fault is not None:
                        yield faulted(rec, fault), None
                        return
                    n, bad = result
                    count += n
                    for text, b in zip(texts, bad):
                        violations[text] += b
                    if exhausted:
                        self.completed.append((sweep, count, violations))
                    rec.ends_pass = exhausted and sweep is order[-1]
                    yield rec, None
                    if exhausted:
                        break

    def check(self, rec: Record, detail) -> str | None:
        return None

    def finish(self) -> list[str]:
        problems = []
        for sweep, count, violations in self.completed:
            if count != sweep.expect_models:
                problems.append(f"{sweep.name}: {count} models, expected "
                                f"{sweep.expect_models}")
            for text, want in sweep.expect_violations.items():
                if violations[text] != want:
                    problems.append(f"{sweep.name}: {text!r} violated in "
                                    f"{violations[text]} models, expected "
                                    f"{want}")
        return problems


# ---------------------------------------------------------------------------
# countermodel-search


class CountermodelSearch:
    """Seeded depth-3 formulas over agent a, resources e, r, s and atoms p,
    q; each op parses one and runs the brute-force oracle with carrier bound
    4, logics alternating, stopping at the first witness."""

    name = "countermodel-search"
    decided = ("found", "exhaustive")
    whole_passes = False
    deadline = OP_DEADLINE_S
    carrier_bound = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.sig = Signature.make(["a"], ["e", "r", "s"])

    def stream(self, clock: Clock):
        sig, bound = self.sig, self.carrier_bound
        for i, text, logic in formula_stream(self.seed, sig):

            def op():
                phi = syntax.parse_formula(text, sig)
                return phi, checker.find_countermodel(phi, sig, bound, logic)

            latency, result, fault = clock.run(op, self.deadline)
            rec = Record(i, latency, "", text=text, logic=logic)
            if fault is not None:
                yield faulted(rec, fault), None
                continue
            phi, found = result
            rec.status = "exhaustive" if found is None else "found"
            yield rec, (phi, found)

    def check(self, rec: Record, detail) -> str | None:
        if detail is None or detail[1] is None:
            return None
        phi, (m, world) = detail
        if models.validate_model(m, rec.logic):
            return "countermodel does not validate"
        if checker.satisfies_direct(m, world, phi):
            return "countermodel does not falsify the formula"
        return None

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (ProveCorpus, OracleSweep, CountermodelSearch)}
