"""perfbench's tracer wraps erl's functions by module attribute, so a
renamed or removed name fails only a traced benchmark run.  This runs each
traced layer once under the tracer."""

from itertools import islice
from pathlib import Path
from time import perf_counter

from erl import RunConfig, Signature, checker, models, syntax, tableaux


def test_every_traced_span_sees_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracer import SPANS, Tracer
    sig = Signature.make(["a"], ["e", "r", "s"])
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._patched)
    try:
        tracer.begin_op(0)
        refutable = syntax.parse_formula("[C a; s] p -> [C a; s] [C a; r] p", sig)
        provable = syntax.parse_formula("(p -* q) * p -> q", sig)
        # after T_imp splits, its left child adds c1 ~ c2.c3 by T_star, so
        # it copies the closure it shares with its sibling
        copies = syntax.parse_formula("(p -> q) -> (p * I -> q)", sig)
        assert tableaux.prove(refutable, sig, RunConfig()).refuted
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
