"""Order statistics behind every reported number."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is only quoted as supported when at least this many
#: samples lie beyond it.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    if not 0 < q <= 100:
        raise ValueError("percentile must lie in (0, 100]")
    return max(1, math.ceil(q / 100.0 * n))


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile: the ``ceil(q/100 * n)``-th smallest."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q) if n else 0


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond percentile ``q``."""
    return beyond(n, q) >= MIN_BEYOND


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf
