"""Spans around the public functions of erl's layers, kept in memory.

``Tracer.install`` replaces module and class attributes of ``erl`` with
wrappers that record one span per call (op id, name, start, end, parent span)
and a few counters; ``uninstall`` puts the originals back.  Nothing under
``src/`` is edited.  Spans are recorded only between ``begin_op`` and
``end_op``, so output checks made outside an op leave no trace.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

SPANS = ("syntax.parse", "tableaux.prove", "labels.add", "labels.clone",
         "labels.explain", "hintikka.check", "hintikka.extract",
         "hintikka.verify", "models.enum", "checker.eval", "checker.search")
_ID = {name: i for i, name in enumerate(SPANS)}


# Fields of one span in Tracer.spans, in order.
FIELDS = ("op", "id", "name", "start", "end", "parent")
_NF = len(FIELDS)


class Tracer:
    def __init__(self):
        # One record of _NF doubles per closed span, appended by a single
        # ``extend``, so that a deadline signal leaves no partial record.
        self.spans = array("d")
        self.stack: list[tuple] = []    # open spans: (id, name, parent, start)
        self.next_id = 0
        self.active = False
        self.op_id = -1
        self.ops_wall = 0.0
        self.calls = [0] * len(SPANS)
        self.count = {"applications": 0, "attempts": 0, "budget_hits": 0,
                      "refuted": 0, "facts_max": 0, "models": 0,
                      "frames": 0, "found": 0, "models_to_witness": 0}
        self._gen_models = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- op boundaries -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True

    def end_op(self, t_end: float, wall: float) -> None:
        self.active = False
        self.ops_wall += wall
        # Spans a deadline signal left open at the top of the op end with it.
        while self.stack:
            self._record(self.stack.pop(), t_end)

    # -- wrappers ------------------------------------------------------------

    def _record(self, frame: tuple, end: float) -> None:
        sid, nid, parent, start = frame
        self.spans.extend((self.op_id, sid, nid, start, end, parent))

    def _open(self, nid: int) -> tuple:
        sid = self.next_id
        self.next_id = sid + 1
        self.calls[nid] += 1
        stack = self.stack
        frame = (sid, nid, stack[-1][0] if stack else -1, perf_counter())
        stack.append(frame)
        return frame

    def _close(self, frame: tuple) -> None:
        """Close ``frame`` and any span still open above it: a deadline
        signal that lands between a child's ``_open`` and its ``try`` leaves
        the child on the stack, and it ends with its parent."""
        end = perf_counter()
        stack = self.stack
        while stack:
            top = stack.pop()
            self._record(top, end)
            if top is frame:
                return

    def _wrap(self, fn, name: str, after=None):
        nid = _ID[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrap_generator(self, fn, name: str):
        """Each ``next()`` on the returned generator is one span."""
        nid = _ID[name]
        tracer = self

        def traced(gen):
            frame = None
            while True:
                if tracer.active:
                    span = tracer._open(nid)
                    try:
                        m = next(gen, None)
                    finally:
                        tracer._close(span)
                else:
                    m = next(gen, None)
                if m is None:
                    return
                if tracer.active:
                    tracer.count["models"] += 1
                    tracer._gen_models += 1
                    # models of one frame share its classmask dict
                    if m.classmask is not frame:
                        frame = m.classmask
                        tracer.count["frames"] += 1
                yield m

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._gen_models = 0
            return traced(fn(*args, **kwargs))
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from erl import checker, hintikka, labels, models, syntax, tableaux
        self._patch(syntax, "parse_formula",
                    self._wrap(syntax.parse_formula, "syntax.parse"))
        self._patch(tableaux, "prove",
                    self._wrap(tableaux.prove, "tableaux.prove",
                               self._after_prove))
        cls = labels.Closure
        self._patch(cls, "add", self._wrap(cls.add, "labels.add",
                                           self._after_add))
        self._patch(cls, "clone", self._wrap(cls.clone, "labels.clone"))
        self._patch(cls, "derivation_chain",
                    self._wrap(cls.derivation_chain, "labels.explain"))
        self._patch(hintikka, "is_hintikka",
                    self._wrap(hintikka.is_hintikka, "hintikka.check"))
        self._patch(hintikka, "extract_model",
                    self._wrap(hintikka.extract_model, "hintikka.extract"))
        self._patch(hintikka, "verify_extraction",
                    self._wrap(hintikka.verify_extraction, "hintikka.verify"))
        self._patch(checker, "truth_set",
                    self._wrap(checker.truth_set, "checker.eval"))
        self._patch(checker, "find_countermodel",
                    self._wrap(checker.find_countermodel, "checker.search",
                               self._after_search))
        # find_countermodel looks enumerate_models up in checker's namespace
        enum = self._wrap_generator(models.enumerate_models, "models.enum")
        self._patch(models, "enumerate_models", enum)
        self._patch(checker, "enumerate_models", enum)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- counters ------------------------------------------------------------

    def _after_prove(self, args, out) -> None:
        self.count["applications"] += out.applications
        self.count["attempts"] += out.depth
        self.count["budget_hits"] += bool(
            out.diagnostics.get("closure_budget_hit"))
        self.count["refuted"] += out.refuted

    def _after_add(self, args, _result) -> None:
        self.count["facts_max"] = max(self.count["facts_max"], len(args[0]))

    def _after_search(self, args, found) -> None:
        if found is not None:
            self.count["found"] += 1
            self.count["models_to_witness"] += self._gen_models

    # -- results -------------------------------------------------------------

    def records(self):
        """The closed spans, as tuples in FIELDS order."""
        sp = self.spans
        return zip(*(sp[k::_NF] for k in range(_NF)))

    def self_times(self) -> tuple[dict[str, float], float]:
        """(seconds of self time per span name, the lowest self time of any
        one span).  A span's self time is its duration minus the durations
        of its child spans.  A span lost to a deadline signal inside
        ``_close`` has no record; its children keep their own time."""
        n = self.next_id
        own = array("d", bytes(8 * n))
        name = array("b", b"\xff" * n)     # -1: no record
        for _op, sid, nid, start, end, par in self.records():
            sid, par = int(sid), int(par)
            own[sid] += end - start
            name[sid] = int(nid)
            if par >= 0:
                own[par] -= end - start
        out = [0.0] * len(SPANS)
        lowest = 0.0
        for sid in range(n):
            if name[sid] >= 0:
                out[name[sid]] += own[sid]
                lowest = min(lowest, own[sid])
        return dict(zip(SPANS, out)), lowest

    def write(self, path) -> None:
        """One CSV row per span, in the order they closed; times in
        nanoseconds from the first span's start."""
        sp = self.spans
        t0 = min(sp[3::_NF], default=0.0)
        with open(path, "w") as fh:
            fh.write(",".join(FIELDS) + "\n")
            for op, sid, nid, start, end, par in self.records():
                fh.write(f"{int(op)},{int(sid)},{SPANS[int(nid)]},"
                         f"{round((start - t0) * 1e9)},"
                         f"{round((end - t0) * 1e9)},{int(par)}\n")
