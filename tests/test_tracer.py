"""perfbench's tracer wraps erl's functions by module attribute, so a
renamed or removed name fails only a traced benchmark run.  This runs each
traced layer once under the tracer."""

from itertools import count, islice
from pathlib import Path
from time import perf_counter

from erl import RunConfig, Signature, checker, models, syntax, tableaux


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer
    return tracer


def test_every_traced_span_sees_calls(monkeypatch):
    tracer_module = _tracer(monkeypatch)
    SPANS, Tracer = tracer_module.SPANS, tracer_module.Tracer
    sig = Signature.make(["a"], ["e", "r", "s"])
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        tracer.begin_op(0)
        refutable = syntax.parse_formula("[C a; s] p -> [C a; s] [C a; r] p", sig)
        # a refutation whose branch never writes reads the shared root's
        # extraction: its extract and verify spans must still be seen
        root_only = syntax.parse_formula("p -> q", sig)
        provable = syntax.parse_formula("(p -* q) * p -> q", sig)
        # after T_imp splits, its left child adds c1 ~ c2.c3 by T_star
        # while its sibling T q : c1 is open, so it copies the closure they
        # share
        copies = syntax.parse_formula("(p -> q) -> ((p * q) -> (q * p))", sig)
        assert tableaux.prove(refutable, sig, RunConfig()).refuted
        before = list(tracer.calls)
        assert tableaux.prove(root_only, sig, RunConfig()).refuted
        seen = {span: n - m for span, n, m in zip(SPANS, tracer.calls, before)}
        assert seen["labels.add"] == 0
        assert seen["hintikka.extract"] == seen["hintikka.verify"] == 1
        assert tableaux.prove(provable, sig, RunConfig()).proved
        assert tableaux.prove(copies, sig, RunConfig()).proved
        assert checker.find_countermodel(refutable, sig, 3, "erl") is not None
        for m in islice(models.enumerate_models(sig, 0, ["p"]), 5):
            checker.truth_set(m, refutable, {})
        tracer.end_op(perf_counter(), 0.0)
    finally:
        tracer.uninstall()
    calls = dict(zip(SPANS, tracer.calls))
    # prove has not called is_hintikka since a refutation is checked by
    # verifying the extracted model
    assert all(n > 0 for span, n in calls.items() if span != "hintikka.check"), calls
    assert patched and all(owner.__dict__[attr] is original
                           for owner, attr, original in patched)


def test_interleaved_plain_and_traced_enumerations(monkeypatch):
    # a traced oracle-sweep run reads one level through two live streams in
    # turn, MODELS_PER_OP models each: one plain, one through the tracer's
    # wrapper, which reads m.classmask of every model
    Tracer = _tracer(monkeypatch).Tracer
    sig = Signature.make(["a"], ["e", "s", "t"])
    laws = [syntax.parse_formula(f, sig) for f in (
        "[C a; s] [C a; t] p -> [C a; s.t] p",
        "[D a; t] [D a; s] p -> [D a; s] p")]
    tracer = Tracer()
    plain = models.enumerate_models(sig, 1, ("p",), "erl-star")
    tracer.install()
    try:
        traced = models.enumerate_models(sig, 1, ("p",), "erl-star")
    finally:
        tracer.uninstall()

    def take(stream):
        """Models and violations per law over the next 200 models."""
        got = [0] * (1 + len(laws))
        for m in islice(stream, 200):
            got[0] += 1
            for i, phi in enumerate(laws, 1):
                got[i] += checker.truth_set(m, phi, {}) != m.full_mask
        return got

    totals = {"plain": [0, 0, 0], "traced": [0, 0, 0]}
    for op in count():
        got = {"plain": take(plain)}
        tracer.install()
        tracer.begin_op(op)
        try:
            got["traced"] = take(traced)
        finally:
            tracer.end_op(perf_counter(), 0.0)
            tracer.uninstall()
        if got == {"plain": [0, 0, 0], "traced": [0, 0, 0]}:
            break
        for name, row in got.items():
            totals[name] = [a + b for a, b in zip(totals[name], row)]
    assert totals["plain"] == totals["traced"] == [1200, 0, 324]
    assert tracer.count["models"] == 1200
