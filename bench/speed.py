"""A speed probe that runs alongside the timed work, so times can be read at
a fixed machine speed.

On a shared host the speed of a core switches within seconds, by as much as
1.6x, as neighbours come and go.  A reference computation run between
iterations misses switches that happen during one.  The probe instead runs a
fixed sub-millisecond computation from a SIGALRM handler every
``INTERVAL_S`` of wall time, in this process and on its one thread, so its
samples interleave with the work being timed (including waits for a child
interpreter, where the probe measures the machine the child runs on).

A timed window [start, end] is then read as

    (end - start - probe time inside it) * NOMINAL_S / trimmed mean probe

that is, wall time minus the probe's own cost, scaled to the speed at which
one probe takes ``NOMINAL_S``.  While this process waits for a child, the
probe runs beside the child rather than in its way, so there the
subtraction undercounts by the probe's share of the time (about 2%), the
same on every commit.  The trimmed mean drops the slowest and
fastest tenth of the samples (a probe hit by an interrupt) and keeps the
mix of fast and slow spells the window went through.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.03
#: a round figure for one probe on the 2-core machine the benchmark was
#: defined on (fast spells 0.43-0.49 ms, slow spells 0.70-0.80 ms)
NOMINAL_S = 0.0005
TRIM = 0.1
_COEFFICIENTS = [(i * 7919) % 1009 - 504 for i in range(80)]


def _kernel() -> None:
    """Integer polynomial product: the interpreter work the program's inner
    loops do, with no data that outlives the call."""
    product = [0] * (2 * len(_COEFFICIENTS) - 1)
    for i, x in enumerate(_COEFFICIENTS):
        for j, y in enumerate(_COEFFICIENTS):
            product[i + j] += x * y


def trimmed_mean(values: list[float]) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class SpeedProbe:
    """Samples (start, duration) of the probe while installed."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        _kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds without the probe's cost, seconds at nominal
        speed) of the window [start, end].  A window too short to hold a
        sample borrows the nearest ones."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        wall = end - start - sum(inside)
        samples = inside
        if len(samples) < 5:
            samples = self.durations[max(0, lo - 3):hi + 3]
        return wall, wall * NOMINAL_S / trimmed_mean(samples)

    def overall(self) -> float:
        """Trimmed mean probe time over every sample so far."""
        return trimmed_mean(self.durations)
