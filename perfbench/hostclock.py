"""A clock that reads in seconds at a fixed reference speed of the host.

The host this benchmark was tuned on changes speed while it runs: a fixed
loop of Python code took 2.6-5.1 ms from one second to the next within a
minute, on a 2-vCPU VM with 0% steal and CPU time equal to wall time.  Raw
wall times of the same work therefore spread by up to 0.37 of their median
over ten runs (interquartile range over median), more than a useful
regression bound allows.

:class:`HostClock` measures the host's speed every :data:`PERIOD` seconds
while a run measures, by timing :data:`CAL_ITERATIONS` iterations of a
fixed calibration loop from a ``SIGALRM`` handler in the main thread.  The
loop is timed in thread CPU time, so a sample that waits for the CPU while
another process runs still reads the CPU's speed.  The clock then converts
``time.perf_counter()`` intervals into *reference seconds*: the time the
interval would have taken at :data:`REFERENCE_RATE` calibration iterations
per second.  The speed between two samples is the mean of the two.  The
calibration's own CPU time counts as zero, so a sample that interrupts an
op is not charged to it, while time other processes run during a sample
still counts.  Reference time is additive: the reference seconds of two
adjacent intervals sum to those of the whole.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Any

#: iterations of the calibration loop per speed sample
CAL_ITERATIONS = 1500
#: seconds between speed samples
PERIOD = 0.02
#: reference speed, in calibration iterations per second: one sample takes
#: 0.25 ms at it, about the fast phase of the 2-vCPU Xeon VM the bounds
#: were set on, so reference seconds read close to that host's fastest
#: wall seconds
REFERENCE_RATE = CAL_ITERATIONS / 0.25e-3


def _calibrate(n: int) -> int:
    """Fixed interpreter work: dict updates and integer arithmetic."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = i & 63
        table[k] = table.get(k, 0) + i
        acc += (i * 7) % 13
    return acc


class HostClock:
    """Samples the host's speed while the ``with`` block runs; after it,
    :meth:`seconds` converts ``perf_counter`` intervals from inside the
    block into reference seconds."""

    def __init__(self, period: float = PERIOD) -> None:
        self.period = period
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._cpu: list[float] = []        # the calibration's CPU seconds
        self._speeds: list[float] = []     # host speed / reference speed
        self._at: list[float] = []         # reference seconds at each start
        self._previous: Any = None

    def _sample(self, *_: Any) -> None:
        t0 = time.perf_counter()
        c0 = time.thread_time()
        _calibrate(CAL_ITERATIONS)
        cpu = time.thread_time() - c0
        self._starts.append(t0)
        self._cpu.append(cpu)
        self._speeds.append(CAL_ITERATIONS / cpu / REFERENCE_RATE)
        self._ends.append(time.perf_counter())

    def __enter__(self) -> "HostClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        # a sample the OS interrupted can read far off its neighbours; a
        # running median of three drops it
        raw = self._speeds
        self._speeds = [statistics.median(raw[max(k - 1, 0):k + 2])
                        for k in range(len(raw))]
        at = [0.0]
        for k in range(1, len(self._starts)):
            gap = self._starts[k] - self._ends[k - 1]
            at.append(at[-1] + self._inside(k - 1)
                      + gap * self._between(k - 1))
        self._at = at

    def _inside(self, k: int) -> float:
        """Reference seconds within sample ``k``: the part of it other
        processes ran."""
        wall = self._ends[k] - self._starts[k]
        return max(0.0, wall - self._cpu[k]) * self._speeds[k]

    def _between(self, k: int) -> float:
        """Host speed between sample ``k`` and the next one."""
        if k + 1 >= len(self._speeds):
            return self._speeds[k]
        return (self._speeds[k] + self._speeds[k + 1]) / 2

    def _reference(self, t: float) -> float:
        """Reference seconds from the start of the first sample to ``t``."""
        k = bisect.bisect_right(self._starts, t) - 1
        if k < 0:
            return (t - self._starts[0]) * self._speeds[0]
        if t <= self._ends[k]:
            share = (t - self._starts[k]) / (self._ends[k] - self._starts[k])
            return self._at[k] + share * self._inside(k)
        return (self._at[k] + self._inside(k)
                + (t - self._ends[k]) * self._between(k))

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds between two ``perf_counter`` readings."""
        if not self._at:
            raise RuntimeError("HostClock.seconds() before the clock stopped")
        return self._reference(t1) - self._reference(t0)

    def speed(self) -> dict[str, float]:
        """Median and extremes of the host's speed over the block, as a
        share of the reference speed, and the number of samples."""
        return {"median": statistics.median(self._speeds),
                "min": min(self._speeds), "max": max(self._speeds),
                "samples": len(self._speeds)}
