"""The machine's speed, sampled while a workload runs.

The host lends this machine a share of its cores and caches, and the speed
it gives drifts by tens of percent over seconds and minutes as other
tenants load it.  The same round of calls can take 30 % longer in one run
than in the next, which no length of run averages away.  So every timed
stretch also times a fixed reference kernel that shares the machine with
the program: a timer interrupts the main thread every ``PERIOD_S`` seconds,
and the handler runs the kernel once and records how long it took.

The kernel does what the program's hot path does, from code of its own:
it evaluates a tree of closures in complex arithmetic, as the evaluators
that ``expr.compile_evaluator`` returns do; walks a list of floats much
larger than a core's cache, as evaluating large expression trees does;
hashes and looks up small tuples, as building expressions does; and solves
small linear systems in numpy, as ``submanifold`` does.  Each part tracks
the slow-downs of one kind of the program's work better than the others,
and their sum tracks the workloads best.  It never calls the program, so a
change to the program cannot move it.

``scaled(t)`` converts ``t`` seconds of program time into seconds on a
machine that runs the kernel in ``REFERENCE_S`` (about this machine's
speed on a quiet host): ``t * REFERENCE_S / mean kernel time``.  Program
time excludes the time spent in the kernel.
"""

from __future__ import annotations

import cmath
import random
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
REFERENCE_S = 0.008
_WALK_FLOATS = 1 << 20  # 8 MB of pointers to 24 MB of floats
_WALK_STEPS = 10_000
_TREE_DEPTH = 7
_TREE_EVALS = 10
_KEYS = 3_000
_SOLVES = 100


def _tree(depth: int, k: int):
    if depth == 0:
        if k % 2:
            return lambda a: a[k % 3]
        v = complex(0.9, 0.1 * (k % 5))
        return lambda a: v
    left = _tree(depth - 1, 2 * k + 1)
    right = _tree(depth - 1, 2 * k + 2)
    op = k % 4
    if op == 0:
        return lambda a: (left(a) + right(a)) * 0.5
    if op == 1:
        return lambda a: left(a) * right(a)
    if op == 2:
        return lambda a: left(a) - right(a) * 0.5
    return lambda a: cmath.exp(left(a) * 0.01) * right(a)


class SpeedProbe:
    """Times the reference kernel every ``PERIOD_S`` seconds between
    ``start()`` and ``stop()``, and once at each of them."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self._floats = [rng.random() for _ in range(_WALK_FLOATS)]
        self._steps = [rng.randrange(_WALK_FLOATS) for _ in range(_WALK_STEPS)]
        self._tree = _tree(_TREE_DEPTH, 0)
        self._matrix = np.array([[2.0, 0.1, 0.3], [0.1, 1.5, 0.2], [0.3, 0.2, 1.8]])
        self._rhs = np.array([1.0, 0.5, 0.2])
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the kernel so far
        self._previous = None

    def _kernel(self) -> None:
        start = perf_counter()
        floats = self._floats
        total = 0.0
        for i in self._steps:
            total += floats[i]
        tree = self._tree
        for i in range(_TREE_EVALS):
            total += abs(tree({0: complex(0.01 * i, 0.2), 1: complex(0.3, -0.01 * i), 2: total * 1e-9 + 0.5j}))
        counts = {}
        for i in range(_KEYS):
            key = ("mul", i % 50, ("var", i % 7))
            counts[key] = counts.get(key, 0) + 1
        a, b = self._matrix, self._rhs
        for i in range(_SOLVES):
            x = np.linalg.solve(a + i * 1e-3, b)
            total += float(np.linalg.inv(a) @ np.einsum("ij,j->i", a, x) @ b)
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def _tick(self, signum, frame) -> None:
        self._kernel()
        # One-shot timer, armed again only once the kernel is done, so a
        # slow kernel never runs inside itself.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        self._kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._kernel()

    def scale(self) -> float:
        """Reference seconds per second of this machine, over the samples."""
        return REFERENCE_S / statistics.fmean(self.samples)

    def scaled(self, seconds: float) -> float:
        return seconds * self.scale()
