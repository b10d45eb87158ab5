"""Percentiles with the sample-count rule the benchmark reports by.

A timing is reported as its median and the highest percentile that still has
at least ``MIN_BEYOND`` samples beyond it, together with the sample count.
Percentiles use the nearest-rank definition, so "samples beyond" is exact:
the value at rank ``ceil(q/100 * n)`` has ``n - rank`` samples above it.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10

#: Tail percentiles considered, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    # Round before the ceiling so 99% of 1000 is rank 990, not 991 through
    # floating-point error.
    return min(n, max(1, math.ceil(round(q / 100.0 * n, 9))))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile rank."""
    return n - nearest_rank(n, q)


def tail_level(n: int) -> float:
    """Highest ladder percentile with at least :data:`MIN_BEYOND` samples beyond it.

    Returns 0.0 when not even the median qualifies (fewer than 20 samples).
    """
    for q in TAIL_LADDER:
        if n >= 1 and samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return 0.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean, median, p99 and the rule's tail percentile of ``values``, with counts."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"n": 0}
    level = tail_level(n)
    out = {
        "n": n,
        "mean": sum(ordered) / n,
        "p50": ordered[nearest_rank(n, 50.0) - 1],
        "p99": ordered[nearest_rank(n, 99.0) - 1],
        "p99_beyond": samples_beyond(n, 99.0),
        "tail_q": level,
    }
    if level:
        out["tail"] = ordered[nearest_rank(n, level) - 1]
        out["tail_beyond"] = samples_beyond(n, level)
    return out


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the middle two for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
