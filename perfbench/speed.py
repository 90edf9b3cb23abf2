"""Machine-speed sampling: a small fixed probe, timed from a SIGALRM handler.

The shared 2-core host this benchmark was built on changes speed for
seconds to minutes at a time. Its slow phases took the same invocation
from 0.35 s to 0.68 s inside one run, and they moved whole runs by 30%.
A probe timed every 20 ms, during invocations as well as between them,
sees the same phases. Dividing each invocation by the probe times around
it cut the per-pass spread from 12-16% to 4-6% on the two slowest
workloads. The cold starts behind ``setup_s`` sample it too. The probe
uses no zenokit code, so no program change can move it.
"""
from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.02

_GRID = np.linspace(0.0, 1.0, 2000)
_VECTOR = np.ones(36, dtype=complex)
_MATRIX = (np.random.default_rng(0).normal(size=(36, 36)) + 1j) * 0.01
_ROWS = [(i * 0.1, i * 0.01, 1.0 / (1 + i)) for i in range(150)]


def probe() -> None:
    """About 0.5 ms of the kinds of work the workloads do.

    An interpreter loop, array arithmetic, a loop of small matrix
    products (the oracle's shape), and building and formatting rows of
    floats (the CSV writers').  The last part tracks slow phases that
    hit allocation-heavy code harder than arithmetic.
    """
    total = 0.0
    for i in range(300):
        total += math.sqrt(i)
    np.trapezoid(np.sin(_GRID) * _GRID, _GRID)
    vector = _VECTOR
    for _ in range(10):
        vector = vector + 0.01 * (_MATRIX @ vector)
    rows = [(a + 1e-3, b * 2.0, c) for a, b, c in _ROWS]
    "\n".join(",".join(repr(float(v)) for v in row) for row in rows)


class SpeedSampler:
    """Times :func:`probe` every ``PERIOD_S`` seconds while active (main thread only).

    ``spent`` is the time the samples took, which callers subtract from
    the intervals they time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        end = perf_counter()
        self.starts.append(start)
        self.durations.append(end - start)
        self.spent += perf_counter() - start

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def around(self, start: float, end: float) -> float:
        """Median probe time from two periods before ``start`` to two after ``end``."""
        lo = bisect.bisect_left(self.starts, start - 2 * PERIOD_S)
        hi = bisect.bisect_right(self.starts, end + 2 * PERIOD_S)
        return statistics.median(self.durations[lo:hi] or self.durations)
