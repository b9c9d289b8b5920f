"""How fast the machine runs Python at the moment.

The benchmark runs on a few cores of a shared host, where the same work
can take twice as long a minute later because of other tenants.  So the
worker times this fixed kernel before the first item of a batch, after
each item, and every SAMPLE_INTERVAL_S while an item runs (Sampler), and
run.py scales each item's wall time by REFERENCE_S over the mean of the
kernel times taken around and during it.  A slow or fast spell of the
machine moves the item and the kernel alike, and the scaled time reads as
the seconds the item would take on the reference machine at its usual
speed.  The kernel uses
nothing from cqsdef, so a change to the program moves the item times and
leaves the kernel alone.

The kernel does what cqsdef does most: small-integer arithmetic and gcds,
tuples in dicts and sets, sorting and exact fractions, over a working set
of a few hundred kilobytes.  It runs with the garbage collector off, so
that its time does not depend on how many objects the program holds.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction
from math import gcd

# Seconds one kernel() takes on a 2-vCPU Intel Xeon microVM (2.0 GHz
# nominal) under Python 3.11.7: it read 0.004 to 0.009 s there, about
# 0.006 s in the median, so scaled times read about as wall times there.
REFERENCE_S = 0.006
# Seconds between kernel timings while an item runs.
SAMPLE_INTERVAL_S = 0.25
# kernel()'s result; a test checks it, so the kernel cannot change unseen.
CHECKSUM = 666333


def kernel() -> int:
    """A fixed amount of work; returns a checksum of its results."""
    points: dict[tuple[int, int, int], int] = {}
    for x in range(-12, 13):
        for y in range(-12, 13):
            for z in range(0, 9):
                if 3 * x + 5 * y + 7 * z <= 40 and gcd(gcd(x, y), z) == 1:
                    points[(x, y, z)] = (x * x + y * y + z * z) % 101
    seen = set()
    for (x, y, z), w in points.items():
        seen.add((x + y, y + z, w))
    order = sorted(points, key=lambda p: (points[p], p))
    total = Fraction(0)
    for i, (x, y, z) in enumerate(order[:300], start=1):
        total += Fraction(x * y - z, i * (i + 1))
    return (len(points) * 7919 + len(seen) * 31 + total.numerator % 1000003) % 1000003


def measure() -> float:
    """Seconds one kernel() takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while kernel() took `kernel_s`, as seconds on
    the reference machine."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Times kernel() every SAMPLE_INTERVAL_S seconds of wall time while
    active, from a SIGALRM handler in the main thread.  `readings` holds
    the kernel times and `spent` the seconds the handler took, which the
    caller takes out of the time it measured."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.readings.append(measure())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.readings, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
