"""Print the seconds this fresh process takes to import erl and build one
workload's program-side state (signatures, configurations and parsed fixed
formula sets; not the benchmark's own inputs), followed by CALIBRATIONS
timings of calibrate.work taken just before.

    python3 perfbench/setup_probe.py <workload>
"""

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402

CALIBRATIONS = 9

samples = [calibrate.seconds() for _ in range(CALIBRATIONS)]
t0 = perf_counter()
import erl  # noqa: E402,F401  (timed: this is the import being measured)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](seed=0)
print(repr(perf_counter() - t0), *map(repr, samples))
