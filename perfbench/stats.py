"""Order statistics for timings.

A timing is reported as its median and as the highest percentile that
still has at least ten samples beyond it.  Percentiles are given in tenths
of a percent (900 is p90) so the sample arithmetic stays exact.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(samples: list[float], permille: int) -> float:
    """Linear interpolation between the closest ranks of the sorted samples."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * permille / 1000
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(n: int, permille: int) -> int:
    """How many of n samples lie above the percentile's rank."""
    return n - -(-permille * n // 1000)


def tail_supported(n: int, permille: int) -> bool:
    return beyond(n, permille) >= MIN_BEYOND


def median(samples: list[float]) -> float:
    return percentile(samples, 500)
