"""Job timings corrected for the speed of a shared, noisy host.

On a host whose other tenants take turns with this process's cores, the
same code runs up to twice as slowly for stretches of a second or more.
`HostClock` samples that speed while jobs run: every PERIOD_S of wall time
SIGALRM runs a fixed reference loop in this process and records how long
it took.  A job's time, minus the time its interrupts took, is scaled by
REFERENCE_S over the mean reference loop around the job.  A host that
slows the job and the loops alike leaves the result unchanged; a slower
program raises it.  Results are milliseconds at the reference speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# the reference loop on a quiet 2-vCPU Intel Xeon VM under CPython 3.11
REFERENCE_S = 0.00032


def reference_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(1, i % 97 + 1)
    return total


class HostClock:
    """Use as a context manager around the timed passes."""

    def __init__(self):
        self.starts: list[float] = []
        self.loops: list[float] = []
        self.stolen = 0.0  # seconds spent in the interrupt handler so far

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.loops.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.stolen

    def corrected(self, begin, end) -> float:
        """Seconds at reference speed of the interval between two marks."""
        (t0, stolen0), (t1, stolen1) = begin, end
        lo = bisect.bisect_left(self.starts, t0 - PERIOD_S)
        hi = bisect.bisect_right(self.starts, t1 + PERIOD_S)
        if lo == hi:  # no loop ran near the job: take the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        speed = statistics.fmean(self.loops[lo:hi]) / REFERENCE_S
        return (t1 - t0 - (stolen1 - stolen0)) / speed

    def slowdown(self) -> float:
        """Median reference loop over REFERENCE_S: how slow the host ran."""
        return statistics.median(self.loops) / REFERENCE_S
