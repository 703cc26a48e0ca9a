"""Streaming telemetry primitives: histograms and windowed time-series.

Two bounded-memory aggregates the live service and the simulator both
record into:

* :class:`StreamingHistogram` — a log-bucketed histogram over
  non-negative values (latencies).  Memory is bounded by the bucket
  index clamp, quantile estimates carry at most one bucket's relative
  error (the :data:`GROWTH` factor), and :meth:`StreamingHistogram.merge`
  is independent of partitioning and order (bucket counts are plain
  sums).  It is the registry's only latency aggregate: count, sum,
  extrema and mean are exact, quantiles are estimates.
* :class:`WindowedSeries` — a ring buffer of fixed-width time windows,
  each holding an event count and a value sum.  Recording is O(1); the
  ring keeps the most recent ``windows`` windows and serves rolling
  rates (requests/s, aborts/s) and exportable per-window series
  (the sweep JSON's throughput-over-time curves).

Neither class owns a clock: callers pass timestamps (wall clock for the
service, simulated time for the simulator), which keeps the classes
deterministic and directly property-testable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

__all__ = ["StreamingHistogram", "WindowedSeries"]

#: Ratio between consecutive bucket edges of a :class:`StreamingHistogram`.
GROWTH = 1.1
_LOG_GROWTH = math.log(GROWTH)
#: Bucket index clamp: at :data:`GROWTH` this spans roughly
#: ``1e-17 .. 1e16`` seconds — far beyond any measurable latency — while
#: bounding a histogram to at most ``2 * _IDX_CLAMP + 2`` buckets.
_IDX_CLAMP = 400
#: Complete windows :meth:`WindowedSeries.rate` averages over.
RATE_LOOKBACK = 10


class StreamingHistogram:
    """A mergeable log-bucketed histogram over non-negative values.

    Values fall into geometric buckets ``[GROWTH**i, GROWTH**(i + 1))``;
    a quantile estimate is the upper edge of the bucket holding the
    target rank, so for every quantile ``q``::

        exact <= estimate(q) <= exact * GROWTH

    where ``exact`` is the nearest-rank empirical quantile of the
    recorded values (the property suite pins this bracketing).

    Examples:
        >>> h = StreamingHistogram()
        >>> for v in (0.001, 0.002, 0.004, 0.1):
        ...     h.record(v)
        >>> h.count
        4
        >>> 0.1 <= h.quantile(0.99) <= 0.1 * GROWTH
        True
        >>> other = StreamingHistogram()
        >>> other.record(0.5)
        >>> h.merge(other)
        >>> h.count, round(h.max, 3)
        (5, 0.5)
    """

    __slots__ = ("_buckets", "_zero", "count", "total", "min", "max")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self._zero = 0  # values too small to bucket logarithmically
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    # -- recording -----------------------------------------------------
    def record(self, value: float) -> None:
        """Fold one non-negative value in (negatives raise ValueError)."""
        if value < 0:
            raise ValueError("histogram values must be >= 0")
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.total += value
        if value <= 0.0:
            self._zero += 1
            return
        index = math.floor(math.log(value) / _LOG_GROWTH)
        # Float rounding at a bucket edge may land one off; nudge so the
        # invariant GROWTH**i <= value holds (the bracketing guarantee).
        if GROWTH ** index > value:
            index -= 1
        elif GROWTH ** (index + 1) <= value:
            index += 1
        if index > _IDX_CLAMP:
            index = _IDX_CLAMP
        elif index < -_IDX_CLAMP:
            index = -_IDX_CLAMP
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram into this one.

        The result equals a histogram that recorded both value streams
        directly, in any order — bucket counts and extrema are
        order-free sums/extrema.
        """
        if other.count == 0:
            return
        if self.count == 0 or other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.count += other.count
        self.total += other.total
        self._zero += other._zero
        for index, n in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + n

    # -- reading -------------------------------------------------------
    @property
    def mean(self) -> float:
        """Mean recorded value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (upper bucket edge).

        ``q`` must lie in [0, 1]; 0 returns the exact minimum, and an
        empty histogram returns 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        rank = max(1, math.ceil(q * self.count))
        cumulative = self._zero
        if rank <= cumulative:
            return 0.0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if rank <= cumulative:
                return GROWTH ** (index + 1)
        return self.max  # unreachable unless counts drifted

    def quantiles(self) -> Dict[str, float]:
        """The dashboard trio: ``{"p50", "p90", "p99"}``."""
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> Dict[int, int]:
        """Bucket index -> count (a copy; index -1 edge is ``GROWTH**-1``)."""
        counts = dict(self._buckets)
        if self._zero:
            counts["zero"] = self._zero  # type: ignore[index]
        return counts

    def as_dict(self) -> Dict[str, float]:
        """Summary as a plain JSON-ready dict (count, sum, extrema, quantiles)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            **self.quantiles(),
        }


class WindowedSeries:
    """A ring of fixed-width time windows, each a (count, sum) pair.

    Recording into window ``floor(t / width)`` is O(1); the ring retains
    the ``windows`` most recent windows ever written to (older slots are
    recycled lazily on wrap-around).  ``t`` is whatever clock the caller
    uses — wall seconds in the service, simulated time in the simulator.

    Examples:
        >>> series = WindowedSeries(width=1.0, windows=4)
        >>> for t in (0.2, 0.4, 1.5, 3.0):
        ...     series.record(t, value=2.0)
        >>> series.total_count, series.total_value
        (4, 8.0)
        >>> [w["count"] for w in series.series()]
        [2, 1, 0, 1]
        >>> series.rate(now=4.0)  # 4 events over the 4 retained windows
        1.0
    """

    __slots__ = ("width", "windows", "_index", "_count", "_value",
                 "_latest", "_earliest", "total_count", "total_value")

    def __init__(self, width: float = 1.0, windows: int = 120):
        if width <= 0:
            raise ValueError("window width must be > 0")
        if windows <= 0:
            raise ValueError("window count must be > 0")
        self.width = width
        self.windows = windows
        self._index = [-1] * windows  # window index held by each slot
        self._count = [0] * windows
        self._value = [0.0] * windows
        self._latest = -1  # highest window index ever recorded
        self._earliest = -1  # lowest window index ever recorded
        self.total_count = 0  # cumulative, survives ring eviction
        self.total_value = 0.0

    # -- recording -----------------------------------------------------
    def record(self, t: float, value: float = 1.0, count: int = 1) -> None:
        """Count ``count`` events at time ``t``, each carrying ``value``.

        ``count > 1`` folds a burst of identical events (a coalesced
        mutation batch) into one call — equivalent to ``count`` single
        records at the same ``t``, at a fraction of the bookkeeping.
        """
        if count < 1:
            raise ValueError(f"record count must be >= 1, got {count}")
        index = math.floor(t / self.width)
        slot = index % self.windows
        if self._index[slot] != index:
            self._index[slot] = index
            self._count[slot] = 0
            self._value[slot] = 0.0
        amount = value * count
        self._count[slot] += count
        self._value[slot] += amount
        if index > self._latest:
            self._latest = index
        if self._earliest < 0 or index < self._earliest:
            self._earliest = index
        self.total_count += count
        self.total_value += amount

    # -- reading -------------------------------------------------------
    def _window_at(self, index: int) -> tuple:
        slot = index % self.windows
        if self._index[slot] == index:
            return self._count[slot], self._value[slot]
        return 0, 0.0

    def series(self, now: Optional[float] = None) -> List[Dict[str, float]]:
        """The retained windows, oldest first, empty windows as zeros.

        Spans from the earliest retained window through ``now`` (or the
        latest recorded window), at most ``windows`` entries.  Each
        entry: ``{"start": window start time, "count": n, "sum": v}``.
        """
        if self._latest < 0:
            return []
        last = self._latest
        if now is not None:
            last = max(last, int(math.floor(now / self.width)))
        first = max(self._earliest, last - self.windows + 1)
        out = []
        for index in range(first, last + 1):
            count, value = self._window_at(index)
            out.append(
                {"start": index * self.width, "count": count, "sum": value}
            )
        return out

    def rate(self, now: float) -> float:
        """Events per time unit over the trailing windows.

        Averages the :data:`RATE_LOOKBACK` complete windows (at most
        ``windows``) before the one containing ``now`` — the current,
        partial window is excluded so the rate does not sag at the
        window boundary.  Before any window completes, the partial
        window's elapsed span is used instead.
        """
        lookback = min(RATE_LOOKBACK, self.windows)
        current = int(math.floor(now / self.width))
        if current <= 0 and self._earliest >= current:
            # Nothing but the partial first window exists yet.
            elapsed = max(now - current * self.width, 1e-9)
            return self._window_at(current)[0] / elapsed
        total = 0
        for index in range(current - lookback, current):
            total += self._window_at(index)[0]
        return total / (lookback * self.width)

    def as_dict(self, now: Optional[float] = None) -> Dict[str, object]:
        """Summary + the retained series, JSON-ready."""
        payload: Dict[str, object] = {
            "width": self.width,
            "windows": self.windows,
            "total_count": self.total_count,
            "total_sum": self.total_value,
            "series": self.series(now),
        }
        if now is not None:
            payload["rate"] = self.rate(now)
        return payload
