"""A fixed pure-Python computation that measures the host's current speed.

The benchmark host's speed drifts: on a shared two-vCPU machine the same
op ran anywhere from 0.55 s to 1.17 s within seven minutes, and the drift
lasts for minutes, so medians within one run cannot remove it. Timing this
computation around every op and dividing by it removes most of that drift:
over ten 40 s runs of lossy_lifetime the median host seconds per op spread
by 16% (IQR / median), the same ops at the reference speed by 4%.

It uses the interpreter the way wsnqos does (frozen dataclasses, their
equality, `math.hypot`, tuple-keyed dicts, a heap of tuples) and none of
wsnqos, so a change to the program cannot change it.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time
from dataclasses import dataclass

# What one reference() call takes at the host speed all host times are
# reported at; close to its median on the host the baseline was recorded on.
REF_SECONDS = 0.02


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def reference() -> int:
    points = [
        _Point((i * 7919) % 1000 / 3.0, (i * 104729) % 1000 / 3.0) for i in range(400)
    ]
    heap: list[tuple[float, int]] = []
    sums: dict[tuple[int, int], float] = {}
    pairs = 0
    for i, a in enumerate(points):
        for b in points[i % 5 :: 5]:
            if a != b and math.hypot(a.x - b.x, a.y - b.y) < 90.0:
                pairs += 1
                heapq.heappush(heap, (a.x + b.y, pairs))
                key = (i, pairs % 13)
                sums[key] = sums.get(key, 0.0) + a.y
    while heap:
        heapq.heappop(heap)
    return pairs


def reference_s(calls: int = 2) -> list[float]:
    """Durations of `calls` reference() calls, in seconds."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return times


def speed_scale(before: list[float], after: list[float]) -> float:
    """Factor from host seconds to seconds at the reference speed."""
    return REF_SECONDS / statistics.median(before + after)
