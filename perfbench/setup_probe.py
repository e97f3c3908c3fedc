"""Time a cold set-up: import kahlercheck and build a workload's charts.

Run in a fresh interpreter by ``run.py``, once per set-up sample::

    python3 perfbench/setup_probe.py <workload>

Prints the set-up time on standard output, in reference seconds
(``speed.py``): the machine's speed is sampled while the set-up runs.  The
speed probe imports numpy, so numpy is imported before the clock starts.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from speed import SpeedProbe  # noqa: E402

probe = SpeedProbe()
probe.start()
start = perf_counter()

from kahlercheck import models  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
for chart in workload.charts():
    models.load_manifold(chart.source)
if workload.fixtures():
    models.builtin_immersions()
elapsed = perf_counter() - start - probe.spent
probe.stop()
print(repr(probe.scaled(elapsed)))
