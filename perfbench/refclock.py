"""Reference clock: wall time rescaled by a fixed kernel timed alongside the work.

On a shared machine the same call can take twice as long for tens of
seconds at a time, and the benchmark cannot tell a slow program from a
slow period. The kernel below does the kind of work the program's inner
loops do (heap pushes and pops of tuples, list stores, integer
arithmetic) and never changes. Timed between units of work, it tracks
the machine's speed: a raw duration times ``NOMINAL_S / kernel time``
is the duration on a machine that runs the kernel in NOMINAL_S. Every
reported time is on this clock; the raw figures are printed beside it.
"""

from __future__ import annotations

import heapq
import time

NOMINAL_S = 0.005
SAMPLES = 3


def kernel() -> int:
    size = 2500
    table = [0] * size
    heap: list[tuple[int, int]] = []
    x = 12345
    for _ in range(6000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x % size
        if table[j] < x:
            table[j] = x
            heapq.heappush(heap, (-x, j))
        if len(heap) > 64:
            heapq.heappop(heap)
    return table[0]


def kernel_seconds() -> float:
    """Fastest of SAMPLES kernel runs, which drops a single interruption."""
    best = float("inf")
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class RefClock:
    """Scale factors for consecutive segments of work.

    ``factor()`` closes the segment that began at the previous call (or at
    construction) and returns NOMINAL_S over the mean kernel time at its
    two ends.
    """

    def __init__(self, sample=kernel_seconds):
        self._sample = sample
        self._last = sample()

    def factor(self) -> float:
        now = self._sample()
        mean = (self._last + now) / 2.0
        self._last = now
        return NOMINAL_S / mean
