"""``repro service top`` — a live console for a running daemon.

Polls a daemon over the command protocol (``status`` + ``metrics``
envelopes, the same surface any client sees) and renders a refreshing
fixed-width table: rolling rates from the windowed series, streaming
latency quantiles, shard/transaction/queue gauges and the busiest
per-phase histograms.  Also home to the renderer ``repro trace dump``
uses to print retained request span trees pulled from the flight
recorder.

Rendering is split from polling, and polling from printing, so tests
(and the CI smoke script via ``--iterations``) can exercise the console
without a TTY: every frame is plain text, ``--no-clear`` suppresses the
ANSI home/clear prefix, and a finite ``--iterations`` turns the infinite
loop into a bounded one.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Mapping, Optional

from .client import ServiceClient

__all__ = ["render_top", "render_trace", "render_trace_dump", "top_frames"]

#: ANSI: cursor home + clear-to-end (softer than a full screen wipe).
_CLEAR = "\x1b[H\x1b[J"

#: The windowed series surfaced as rate rows, in display order.
_RATE_ROWS = (
    ("requests", "req/s"),
    ("mutations", "mut/s"),
    ("checks", "checks/s"),
    ("errors", "err/s"),
    ("rejections", "rej/s"),
)


def _fmt(value: float, digits: int = 1) -> str:
    return f"{value:,.{digits}f}"


def render_top(
    status: Mapping[str, Any],
    metrics: Mapping[str, Any],
    clock: str = "",
) -> str:
    """One console frame from a ``status`` + ``metrics`` response pair."""
    gauges: Dict[str, float] = dict(metrics.get("gauges") or {})
    histograms: Dict[str, Any] = dict(metrics.get("histograms") or {})
    lines: List[str] = []
    uptime = float(status.get("uptime_s") or 0.0)
    title = (
        f"repro service top — {len(status.get('shard_sizes') or [])} shards,"
        f" {status.get('transactions', 0)} transactions,"
        f" up {uptime:,.0f}s"
    )
    if clock:
        title += f"  [{clock}]"
    lines.append(title)
    lines.append("")

    lines.append(f"  {'rate':<12} {'per second':>12}")
    for name, label in _RATE_ROWS:
        rate = float(gauges.get(f"rate_{name}_per_s", 0.0))
        lines.append(f"  {label:<12} {_fmt(rate):>12}")
    lines.append("")

    lines.append(
        f"  {'latency':<18} {'count':>8} {'mean':>9} {'p50':>9}"
        f" {'p90':>9} {'p99':>9}"
    )
    for name in sorted(histograms):
        hist = histograms[name]
        lines.append(
            f"  {name:<18} {int(hist.get('count', 0)):>8}"
            f" {_fmt(float(hist.get('mean', 0.0)) * 1e3, 3):>7}ms"
            f" {_fmt(float(hist.get('p50', 0.0)) * 1e3, 3):>7}ms"
            f" {_fmt(float(hist.get('p90', 0.0)) * 1e3, 3):>7}ms"
            f" {_fmt(float(hist.get('p99', 0.0)) * 1e3, 3):>7}ms"
        )
    if not histograms:
        lines.append("  (no requests yet)")
    lines.append("")

    gauge_row = (
        f"  transactions {int(gauges.get('transactions', 0))}"
        f"  shards {int(gauges.get('shards', 0))}"
        f"  queue {int(gauges.get('queue_depth', 0))}"
        f"  mutations {int(gauges.get('mutations', 0))}"
        f"  traces {int(gauges.get('retained_traces', 0))}"
    )
    if "slo_p99_breached" in gauges:
        state = "BREACHED" if gauges["slo_p99_breached"] else "ok"
        gauge_row += f"  slo {state}"
    lines.append(gauge_row)

    busiest = sorted(
        (
            (name, stat)
            for name, stat in histograms.items()
            if name.startswith("service.") and name != "service.request"
        ),
        key=lambda item: -float(item[1].get("sum", 0.0)),
    )[:5]
    if busiest:
        lines.append("")
        lines.append(f"  {'phase':<22} {'calls':>8} {'total':>10} {'mean':>10}")
        for name, stat in busiest:
            lines.append(
                f"  {name:<22} {int(stat.get('count', 0)):>8}"
                f" {_fmt(float(stat.get('sum', 0.0)) * 1e3, 1):>8}ms"
                f" {_fmt(float(stat.get('mean', 0.0)) * 1e3, 3):>8}ms"
            )
    return "\n".join(lines)


def top_frames(
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    socket_path: Optional[str] = None,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    clear: bool = True,
    timeout: float = 10.0,
) -> Iterator[str]:
    """Poll a daemon and yield its console frames, ``interval`` apart.

    ``iterations=None`` polls until the caller stops (the interactive
    mode); a finite count (the smoke script passes 2) bounds the loop.
    Printing is the caller's, so a closed stdout is never mistaken for
    an unreachable daemon.  A daemon that cannot be reached raises
    :class:`OSError`; one that answers with an error envelope raises
    :class:`~repro.service.client.ServiceError`.
    """
    if interval <= 0:
        raise ValueError("interval must be > 0")
    frame = 0
    with ServiceClient(
        host=host, port=port, socket_path=socket_path, timeout=timeout
    ) as client:
        while iterations is None or frame < iterations:
            if frame:
                time.sleep(interval)
            status = client.call("status")
            metrics = client.call("metrics")
            frame += 1
            clock = time.strftime("%H:%M:%S")
            prefix = _CLEAR if clear else ("" if frame == 1 else "\n")
            yield prefix + render_top(status, metrics, clock=clock)


def render_trace(trace: Mapping[str, Any]) -> str:
    """One retained request trace as an indented span tree."""
    header = (
        f"{trace.get('request_id')}  op={trace.get('op')}"
        f"  {float(trace.get('duration_s') or 0.0) * 1e3:.3f}ms"
        f"  ok={trace.get('ok')}"
    )
    spans: List[Mapping[str, Any]] = list(trace.get("spans") or [])
    children: Dict[Optional[int], List[Mapping[str, Any]]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: float(s.get("start_s") or 0.0))
    lines = [header]

    def walk(parent: Optional[int], depth: int) -> None:
        for span in children.get(parent, []):
            attrs = span.get("attrs") or {}
            shown = " ".join(
                f"{key}={attrs[key]}"
                for key in sorted(attrs)
                if key != "request_id"
            )
            lines.append(
                f"  {'  ' * depth}{span.get('name')}"
                f"  {float(span.get('duration_s') or 0.0) * 1e3:.3f}ms"
                + (f"  [{shown}]" if shown else "")
            )
            walk(span.get("span_id"), depth + 1)

    walk(None, 0)
    if len(lines) == 1:
        lines.append("  (no spans retained)")
    return "\n".join(lines)


def render_trace_dump(payload: Mapping[str, Any]) -> str:
    """The full ``dump-traces`` payload, slowest set first."""
    lines: List[str] = [
        f"Flight recorder: {payload.get('added', 0)} request(s) observed"
    ]
    for key, title in (("slowest", "Slowest"), ("last", "Most recent")):
        traces = list(payload.get(key) or [])
        lines.append("")
        lines.append(f"{title} ({len(traces)}):")
        if not traces:
            lines.append("  (none retained)")
        for trace in traces:
            for line in render_trace(trace).splitlines():
                lines.append(f"  {line}")
    return "\n".join(lines)
