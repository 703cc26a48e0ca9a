"""Counters and streaming histograms aggregated per phase name.

A registry holds one
:class:`~repro.observability.telemetry.StreamingHistogram` of durations
per name and plain named integer counters.  A tracer's registry is a
view of its span stream, built when read (see
:attr:`~repro.observability.Tracer.registry`): each span's duration
under its name, so ``--stats`` can print a per-phase breakdown (count /
total / mean / max) and traces export quantiles (p50/p90/p99).  The
daemon keeps a registry of its own, recording each request's latency.
Counters count events that have no duration (robustness checks, MVCC
commits, admissions).

Registries fold into one another via :meth:`MetricsRegistry.merge`
(the daemon copies its registry this way for every ``/metrics``
scrape).  Histograms merge bucket-wise (see
:meth:`StreamingHistogram.merge`).
"""

from __future__ import annotations

import re
from typing import Dict, Mapping, Optional

from .telemetry import StreamingHistogram


class MetricsRegistry:
    """Named counters and one duration histogram per phase name.

    Examples:
        >>> registry = MetricsRegistry()
        >>> registry.incr("cache.hits", 3)
        >>> registry.record("scan", 0.25)
        >>> registry.record("scan", 0.75)
        >>> registry.counters["cache.hits"], registry.histograms["scan"].count
        (3, 2)
        >>> registry.histograms["scan"].mean
        0.5
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}

    @property
    def counters(self) -> Dict[str, int]:
        """Named event counters."""
        return self._counters

    @property
    def histograms(self) -> Dict[str, StreamingHistogram]:
        """Per-phase duration histograms (seconds) by span name."""
        return self._histograms

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def record(self, name: str, seconds: float) -> None:
        """Fold one duration into the named histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = StreamingHistogram()
        histogram.record(seconds)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one."""
        for name, histogram in other._histograms.items():
            current = self._histograms.get(name)
            if current is None:
                current = self._histograms[name] = StreamingHistogram()
            current.merge(histogram)
        self.merge_counters(other._counters)

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        """Fold a plain counter mapping in."""
        for name, value in counters.items():
            self.incr(name, value)

    def as_dict(self) -> Dict[str, object]:
        """Both tables as plain JSON-ready dicts (sorted by name).

        ``histograms`` carries summaries (count, sum, extrema, mean and
        quantiles), not raw buckets — the export surface (traces,
        ``/metrics.json``, the ``metrics`` envelope) wants dashboard
        numbers.
        """
        return {
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
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

    Counters export as ``<prefix><name>_total``; each duration
    histogram as a ``<prefix><name>_seconds`` summary —
    ``{quantile="0.5|0.9|0.99"}`` sample lines plus the classic
    ``_seconds_count`` / ``_seconds_sum`` pair; ``gauges``
    (point-in-time values such as queue depth) as plain gauges.  Names
    are sanitized to the legal charset, label values and HELP text
    (``helps`` maps *raw* metric names to help strings) are escaped per
    the format.

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

    for name in sorted(gauges or {}):
        metric = _prom_name(name, prefix)
        emit_header(name, metric, "gauge")
        lines.append(f"{metric} {float(gauges[name])}")
    for name in sorted(registry.counters):
        metric = _prom_name(name, prefix) + "_total"
        emit_header(name, metric, "counter")
        lines.append(f"{metric} {registry.counters[name]}")
    for name in sorted(registry.histograms):
        metric = _prom_name(name, prefix) + "_seconds"
        histogram = registry.histograms[name]
        emit_header(name, metric, "summary")
        if histogram.count:
            for q in _SUMMARY_QUANTILES:
                value = histogram.quantile(q)
                quantile = _escape_label_value(f"{q}")
                lines.append(f'{metric}{{quantile="{quantile}"}} {value}')
        lines.append(f"{metric}_count {histogram.count}")
        lines.append(f"{metric}_sum {histogram.total}")
    return "\n".join(lines) + "\n"
