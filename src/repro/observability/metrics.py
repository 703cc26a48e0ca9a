"""Counters, timers and streaming histograms aggregated per phase name.

The registry is the *aggregate* view of the span stream: every finished
span records its duration under its name, so ``--stats`` can print a
per-phase breakdown (count / total / mean / max) without replaying the
trace.  Counters are plain named integers — the tracer counts events
(robustness checks, MVCC commits) that have no duration.
Every :meth:`MetricsRegistry.record` additionally feeds a
:class:`~repro.observability.telemetry.StreamingHistogram` sibling of
the timer, so quantiles (p50/p90/p99) are available for every timed
phase without retaining raw samples.

Registries fold into one another via :meth:`MetricsRegistry.merge`
(the daemon copies its registry this way for every ``/metrics``
scrape).  Histograms merge bucket-wise (see
:meth:`StreamingHistogram.merge`), and because
:meth:`~repro.observability.Tracer.absorb` re-records each absorbed
span's duration, the histograms of a tracer that absorbed another equal
those of one tracer that recorded every span itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .telemetry import StreamingHistogram


@dataclass
class TimerStat:
    """Aggregate timing of one phase (one span name).

    Attributes:
        count: completed spans with this name.
        total_s: summed duration in seconds.
        min_s: shortest single span.
        max_s: longest single span.
    """

    count: int = 0
    total_s: float = 0.0
    min_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        """Mean span duration in seconds (0.0 when nothing recorded)."""
        return self.total_s / self.count if self.count else 0.0

    def record(self, seconds: float) -> None:
        """Fold one span duration into the aggregate."""
        if self.count == 0 or seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds
        self.count += 1
        self.total_s += seconds

    def merge(self, other: "TimerStat") -> None:
        """Fold another aggregate into this one."""
        if other.count == 0:
            return
        if self.count == 0 or other.min_s < self.min_s:
            self.min_s = other.min_s
        if other.max_s > self.max_s:
            self.max_s = other.max_s
        self.count += other.count
        self.total_s += other.total_s

    def as_dict(self) -> Dict[str, float]:
        """The aggregate as a plain JSON-ready dict.

        Includes the derived ``mean_s`` so consumers of the exported
        trace (``repro trace report``, dashboards) see exactly the
        numbers the ``--stats`` phase report prints — no re-deriving.
        """
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "mean_s": self.mean_s,
        }


class MetricsRegistry:
    """Named counters and per-phase timers.

    Examples:
        >>> registry = MetricsRegistry()
        >>> registry.incr("cache.hits", 3)
        >>> registry.record("scan", 0.25)
        >>> registry.record("scan", 0.75)
        >>> registry.counters["cache.hits"], registry.timers["scan"].count
        (3, 2)
        >>> registry.timers["scan"].mean_s
        0.5
    """

    def __init__(self) -> None:
        self._timers: Dict[str, TimerStat] = {}
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}

    @property
    def timers(self) -> Dict[str, TimerStat]:
        """Per-phase timing aggregates by span name."""
        return self._timers

    @property
    def counters(self) -> Dict[str, int]:
        """Named event counters."""
        return self._counters

    @property
    def histograms(self) -> Dict[str, StreamingHistogram]:
        """Per-phase streaming histograms (one per timer, plus observed)."""
        return self._histograms

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def record(self, name: str, seconds: float) -> None:
        """Fold one duration into the named timer (and its histogram)."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = TimerStat()
        timer.record(seconds)
        self.observe(name, seconds)

    def observe(self, name: str, value: float) -> None:
        """Fold one value into the named histogram only (no timer).

        For distributions that are not durations (batch sizes, queue
        depths at admission); :meth:`record` calls this for every timer.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = StreamingHistogram()
        histogram.record(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one."""
        for name, timer in other._timers.items():
            mine = self._timers.get(name)
            if mine is None:
                mine = self._timers[name] = TimerStat()
            mine.merge(timer)
        for name, histogram in other._histograms.items():
            current = self._histograms.get(name)
            if current is None:
                current = self._histograms[name] = StreamingHistogram(
                    growth=histogram.growth
                )
            current.merge(histogram)
        self.merge_counters(other._counters)

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        """Fold a plain counter mapping in."""
        for name, value in counters.items():
            self.incr(name, value)

    def as_dict(self) -> Dict[str, object]:
        """All tables as plain JSON-ready dicts (sorted by name).

        ``histograms`` carries quantile summaries, not raw buckets —
        the export surface (traces, ``/metrics.json``, the ``metrics``
        envelope) wants dashboard numbers, and
        :func:`~repro.observability.validate_trace` tolerates the extra
        key on older consumers.
        """
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "timers": {
                name: self._timers[name].as_dict() for name in sorted(self._timers)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }


def _prom_name(name: str, prefix: str) -> str:
    """A dotted metric name as a legal prometheus identifier.

    The exposition format allows ``[a-zA-Z_:][a-zA-Z0-9_:]*``; anything
    else becomes ``_``, and a name that would start with a digit (after
    an empty prefix) gains a leading underscore.
    """
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    metric = f"{prefix}{cleaned}"
    if not re.match(r"[a-zA-Z_:]", metric):
        metric = f"_{metric}"
    return metric


def _escape_label_value(value: str) -> str:
    """A label value escaped per the exposition format (\\\\, \\", \\n)."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP text escaped per the exposition format (\\\\ and \\n only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


#: The quantiles exported per summary family (the dashboard trio).
_SUMMARY_QUANTILES = (0.5, 0.9, 0.99)


def prometheus_text(
    registry: MetricsRegistry,
    gauges: Optional[Mapping[str, float]] = None,
    prefix: str = "repro_",
    helps: Optional[Mapping[str, str]] = None,
) -> str:
    """The registry in the prometheus text exposition format.

    Counters export as ``<prefix><name>_total``; timers as summaries —
    ``{quantile="0.5|0.9|0.99"}`` sample lines (from the registry's
    streaming histograms) plus the classic ``_seconds_count`` /
    ``_seconds_sum`` pair; histogram-only names (:meth:`observe`)
    export as unit-less summaries; ``gauges`` (point-in-time values
    such as queue depth) as plain gauges.  Names are sanitized to the
    legal charset, label values and HELP text (``helps`` maps *raw*
    metric names to help strings) are escaped per the format.

    Examples:
        >>> registry = MetricsRegistry()
        >>> registry.incr("service.requests", 2)
        >>> print(prometheus_text(registry, {"queue_depth": 0.0}).strip())
        ... # doctest: +NORMALIZE_WHITESPACE
        # TYPE repro_queue_depth gauge
        repro_queue_depth 0.0
        # TYPE repro_service_requests_total counter
        repro_service_requests_total 2
    """
    helps = helps or {}
    lines: list = []

    def emit_header(raw_name: str, metric: str, kind: str) -> None:
        if raw_name in helps:
            lines.append(f"# HELP {metric} {_escape_help(helps[raw_name])}")
        lines.append(f"# TYPE {metric} {kind}")

    def emit_summary(raw_name: str, metric: str, count: int, total: float) -> None:
        emit_header(raw_name, metric, "summary")
        histogram = registry.histograms.get(raw_name)
        if histogram is not None and histogram.count:
            for q in _SUMMARY_QUANTILES:
                value = histogram.quantile(q)
                quantile = _escape_label_value(f"{q}")
                lines.append(f'{metric}{{quantile="{quantile}"}} {value}')
        lines.append(f"{metric}_count {count}")
        lines.append(f"{metric}_sum {total}")

    for name in sorted(gauges or {}):
        metric = _prom_name(name, prefix)
        emit_header(name, metric, "gauge")
        lines.append(f"{metric} {float(gauges[name])}")
    for name in sorted(registry.counters):
        metric = _prom_name(name, prefix) + "_total"
        emit_header(name, metric, "counter")
        lines.append(f"{metric} {registry.counters[name]}")
    for name in sorted(registry.timers):
        metric = _prom_name(name, prefix) + "_seconds"
        stat = registry.timers[name]
        emit_summary(name, metric, stat.count, stat.total_s)
    for name in sorted(registry.histograms):
        if name in registry.timers:
            continue  # already exported with the timer's summary
        histogram = registry.histograms[name]
        emit_summary(name, _prom_name(name, prefix), histogram.count, histogram.total)
    return "\n".join(lines) + "\n"
