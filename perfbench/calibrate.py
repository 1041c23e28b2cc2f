"""A fixed piece of pure-Python work that gauges the speed of the core.

The cores of the machine this benchmark was built on change speed by up to
1.75x over tens of seconds, with the process on the CPU all the time (see
NOTES.md).  The benchmark times this loop between ops and gives every op
time at a reference speed: the time measured, times ``REFERENCE_S`` over
the loop's recent median time.  The loop uses nothing from erl, so a
change to the program cannot change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Seconds ``work`` takes on the reference core.  Scaled times are what the
# op would take on a core that runs ``work`` in this time.
REFERENCE_S = 0.5e-3


def _step(x: int, s: frozenset) -> tuple[int, frozenset]:
    return (x * 1103515245 + 12345) & 0x7FFFFFFF, s | {x & 31}


def work() -> int:
    """Dictionary, integer, call, tuple and frozenset work, the mix of an
    interpreter-bound program; about 0.45 ms on the machine of NOTES.md."""
    acc, d = 0, {}
    for i in range(1000):
        k = (acc ^ i) & 127
        d[k] = d.get(k, 0) + 1
        acc = (acc * 31 + i) & 0xFFFFF
    x, s, e = 1, frozenset(), {}
    for i in range(350):
        x, s = _step(x, s)
        e[(x & 63, i & 7)] = len(s)
        if len(s) > 24:
            s = frozenset()
    return acc + len(d) + x + len(e)


def seconds() -> float:
    """Seconds one run of ``work`` takes now."""
    t0 = perf_counter()
    work()
    return perf_counter() - t0


def scale(samples) -> float:
    """Factor that turns a time measured now into one at the reference
    speed, from recent ``seconds()`` samples."""
    return REFERENCE_S / statistics.median(samples)
