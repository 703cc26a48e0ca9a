"""Correlated request logging: JSON-lines events and retained traces.

Three pieces the service's live observability stands on:

* :func:`new_request_id` — process-unique request ids.  Every envelope
  :class:`~repro.service.core.ServiceCore` executes gets one, stamped on
  the response, on the request's spans, and on every event it emits —
  the correlation key joining the event log to the trace retainer.
* :class:`EventLog` — structured events (``{"ts", "kind",
  "request_id", ...}``) appended as JSON lines to a file (one object
  per line, append-only, safe to ``tail -f``); without a file, emitting
  is a no-op.  The schema is enforced by :func:`validate_event` /
  :func:`validate_eventlog_file` (CI's eventlog validation step).
* :class:`TraceRetainer` — the always-on flight recorder: keeps the
  last 32 and the slowest 16 finished request span trees in memory, so
  ``repro trace dump`` can pull the span tree of a slow request *after*
  it happened from a daemon that was never started with ``--trace``.

All three are clock-agnostic and transport-free; thread-safety is a
small internal lock (the service core already serializes requests, but
the daemon's lifecycle code emits events from other threads).
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "EventLog",
    "RetainedTrace",
    "TraceRetainer",
    "new_request_id",
    "validate_event",
    "validate_eventlog_file",
]

_SCALARS = (str, int, float, bool, type(None))

_request_counter = itertools.count(1)

#: How many of the latest and of the slowest request traces
#: :class:`TraceRetainer` keeps.
RETAIN_LAST, RETAIN_SLOWEST = 32, 16


def new_request_id() -> str:
    """A process-unique request id, e.g. ``"r1a2b-17"``.

    The pid prefix keeps ids from a restarted daemon distinguishable in
    a shared event log; the counter makes them unique and ordered within
    one process (``itertools.count`` is atomic under the GIL).
    """
    return f"r{os.getpid():x}-{next(_request_counter)}"


def validate_event(event: object) -> None:
    """Validate one event object against the event-log schema.

    The schema: a JSON object with ``ts`` (number >= 0) and ``kind``
    (non-empty string); ``request_id`` when present is a string or
    null; every other field maps a string key to a scalar, a list of
    scalars, or a flat object of scalars.  Raises :class:`ValueError`
    on the first violation.
    """
    if not isinstance(event, dict):
        raise ValueError("event must be a JSON object")
    ts = event.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
        raise ValueError(f"event 'ts' must be a non-negative number, got {ts!r}")
    kind = event.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ValueError(f"event 'kind' must be a non-empty string, got {kind!r}")
    if "request_id" in event and not isinstance(
        event["request_id"], (str, type(None))
    ):
        raise ValueError("event 'request_id' must be a string or null")
    for key, value in event.items():
        if not isinstance(key, str):
            raise ValueError("event keys must be strings")
        if isinstance(value, _SCALARS):
            continue
        if isinstance(value, list) and all(
            isinstance(item, _SCALARS) for item in value
        ):
            continue
        if isinstance(value, dict) and all(
            isinstance(k, str) and isinstance(v, _SCALARS)
            for k, v in value.items()
        ):
            continue
        raise ValueError(
            f"event field {key!r} must be a scalar, a scalar list,"
            " or a flat scalar object"
        )


def validate_eventlog_file(path: Union[str, Path]) -> int:
    """Validate every line of a JSON-lines event log; returns the count.

    Raises:
        ValueError: naming the first line that is not JSON (or is nested
            too deeply to decode) or is not an event.
    """
    count = 0
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            try:
                validate_event(event)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            count += 1
    return count


class EventLog:
    """Structured events appended to a JSON-lines file.

    Without a ``path`` the log is off: :meth:`emit` builds nothing and
    writes nothing.

    Examples:
        >>> import tempfile
        >>> with tempfile.TemporaryDirectory() as tmp:
        ...     path = Path(tmp) / "events.jsonl"
        ...     with EventLog(path, clock=lambda: 42.0) as log:
        ...         log.emit("request", request_id="r-1", op="add", latency_ms=1.5)
        ...         log.emit("alert", breached=True)
        ...     print(path.read_text(), end="")
        {"kind":"request","latency_ms":1.5,"op":"add","request_id":"r-1","ts":42.0}
        {"breached":true,"kind":"alert","ts":42.0}
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        clock: Callable[[], float] = time.time,
    ):
        self.path = str(path) if path else None
        self._clock = clock
        self._lock = threading.Lock()
        self._handle = None
        if self.path:
            self._handle = open(self.path, "a", encoding="utf-8", buffering=1)

    def emit(self, kind: str, request_id: Optional[str] = None, **fields: Any) -> None:
        """Append one event to the file (nothing when the log is off)."""
        if self._handle is None:
            return
        event: Dict[str, Any] = {"ts": float(self._clock()), "kind": kind}
        if request_id is not None:
            event["request_id"] = request_id
        event.update(fields)
        line = json.dumps(event, separators=(",", ":"), sort_keys=True) + "\n"
        with self._lock:
            if self._handle is not None:
                self._handle.write(line)

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class RetainedTrace:
    """One finished request's span tree, as kept by the flight recorder.

    ``spans`` are the request tracer's exported span events (see
    :meth:`~repro.observability.SpanRecord.as_event`), completion-
    ordered — the same shape ``--trace`` files carry, so the trace
    analysis tooling can consume a dumped request directly.
    """

    request_id: str
    op: str
    ts: float
    duration_s: float
    ok: bool
    spans: List[Dict[str, object]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "op": self.op,
            "ts": self.ts,
            "duration_s": self.duration_s,
            "ok": self.ok,
            "spans": self.spans,
        }


class TraceRetainer:
    """The always-on flight recorder: the last :data:`RETAIN_LAST` and
    the slowest :data:`RETAIN_SLOWEST` request traces.

    Examples:
        >>> retainer = TraceRetainer()
        >>> for i, d in enumerate((0.5, 0.1, 0.9, 0.2)):
        ...     retainer.add(RetainedTrace(f"r-{i}", "check", 0.0, d, True))
        >>> [t.request_id for t in retainer.last_traces(2)]
        ['r-2', 'r-3']
        >>> [t.request_id for t in retainer.slowest_traces(2)]
        ['r-2', 'r-0']
    """

    def __init__(self) -> None:
        self._last: deque = deque(maxlen=RETAIN_LAST)
        self._heap: List = []  # min-heap of (duration_s, seq, trace)
        self._seq = 0
        self._added = 0
        self._lock = threading.Lock()

    @property
    def added(self) -> int:
        """Traces ever offered to the retainer."""
        return self._added

    def add(self, trace: RetainedTrace) -> None:
        """Offer one finished request trace to both retention sets."""
        with self._lock:
            self._added += 1
            self._seq += 1
            self._last.append(trace)
            entry = (trace.duration_s, self._seq, trace)
            if len(self._heap) < RETAIN_SLOWEST:
                heapq.heappush(self._heap, entry)
            elif trace.duration_s > self._heap[0][0]:
                heapq.heapreplace(self._heap, entry)

    def last_traces(self, n: Optional[int] = None) -> List[RetainedTrace]:
        """The most recent traces, oldest first."""
        with self._lock:
            traces = list(self._last)
        return traces if n is None else traces[-n:]

    def slowest_traces(self, n: Optional[int] = None) -> List[RetainedTrace]:
        """The slowest traces, slowest first."""
        with self._lock:
            ordered = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        traces = [entry[2] for entry in ordered]
        return traces if n is None else traces[:n]

    def dump(
        self, last: Optional[int] = None, slowest: Optional[int] = None
    ) -> Dict[str, object]:
        """Both retention sets as a JSON-ready payload."""
        return {
            "added": self.added,
            "last": [t.as_dict() for t in self.last_traces(last)],
            "slowest": [t.as_dict() for t in self.slowest_traces(slowest)],
        }
