"""How fast the machine runs right now, from a fixed reference computation.

On a shared machine the speed of one core swings by 20-40% over seconds
to minutes (other tenants' load on the same physical cores and caches),
and CPU time follows wall time there, so neither clock alone gives
comparable numbers from runs made minutes apart.  ``Probe`` runs a small
reference computation, which does not use njordan, between ops and keeps
its timings.  An op's normalized time is its wall time multiplied by
``NOMINAL_S`` over the median reference time within ``WINDOW_S`` of the
op: the time the op would have taken while the reference ran at its
nominal speed.  A change to njordan moves the op times and not the
reference, so it moves the normalized times in full.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

# The reference's median time on the 2-core machine the baseline comes
# from, so normalized times read as that machine's seconds.
NOMINAL_S = 0.003
# Take a reference sample after an op once this much time has passed since the last.
INTERVAL_S = 0.05
# Reference samples this close to an op (before its start or after its end) set its factor.
WINDOW_S = 1.0

_RNG = np.random.default_rng(0)
_TABLE = _RNG.integers(0, 25, (25, 25))
_INDEX = _RNG.integers(0, 25, 4000)


def reference() -> tuple[Fraction, int]:
    """Dictionary and rational arithmetic, then small table lookups in numpy."""
    acc: dict[tuple[int, int, int], Fraction] = {}
    for i in range(400):
        key = (i % 7, i % 11, i % 3)
        acc[key] = acc.get(key, 0) + Fraction(i, 7)
    x = _INDEX
    for _ in range(20):
        x = (_TABLE[x, _INDEX] * 3 + _INDEX) % 25
    return sum(acc.values()), int(x.sum())


class Probe:
    """Reference timings over a run, and the speed factor they give each op."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> float:
        """Time one reference call (after one warm-up call) and keep it."""
        reference()
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.times.append(end)
        self.seconds.append(end - start)
        return end - start

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Slowness around [start, end] relative to nominal: > 1 means a slow spell."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.seconds[lo:hi] or self.seconds
        return statistics.median(near) / NOMINAL_S

    def normalize(self, start: float, seconds: float) -> float:
        return seconds / self.factor(start, start + seconds)
