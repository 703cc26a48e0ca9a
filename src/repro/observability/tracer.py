"""Span-based tracing for the analysis engines.

A *span* is one timed phase of work — a robustness check, one ``T_1``
split-schedule scan, one Algorithm 2 level decision, one MVCC
simulation run.  Spans nest (each records its parent), so an exported
trace is a forest mirroring the call structure:

    allocation.optimal
      robustness.check
        robustness.scan_t1 (t1=1)
        robustness.scan_t1 (t1=2)
      allocation.refine
        allocation.refine_txn (tid=1)
          allocation.probe (tid=1, levels=[RC, SI], checks=2)
            robustness.check_delta (delta_tid=1)
              robustness.scan_t1 (t1=1)

The module-global *current tracer* is a :class:`NullTracer` by default:
every instrumentation point in the hot paths costs one attribute lookup
and a no-op method call, and — the contract the equivalence tests pin —
**no behavior changes whether tracing is on or off**.  Enable tracing by
installing a recording :class:`Tracer` (the CLI's ``--trace`` flag does
this via :func:`use_tracer`).  :meth:`Tracer.absorb` copies another
tracer's spans in; the daemon uses it to fold each request's tracer into
the ``--trace`` tracer.

Every span is recorded in the exporting process, so its ``origin`` is
``"main"``.  The field stays in the format because traces written by
older builds also hold spans of worker processes, whose clocks are not
comparable with the parent's.

The exported JSON schema is documented on :data:`TRACE_VERSION` /
:func:`validate_trace` and checked by CI's trace-export smoke step.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

from .metrics import MetricsRegistry

#: Version stamp of the exported JSON trace format (see :func:`validate_trace`).
#: Version 1 also held a ``metrics.timers`` table; it stays readable.
TRACE_VERSION = 2

#: The ``origin`` of every exported span and of the trace itself.
_ORIGIN = "main"


@dataclass
class SpanRecord:
    """One finished span.

    Attributes:
        span_id: unique id within the owning tracer.
        parent_id: enclosing span's id, ``None`` for a root.
        name: phase name (dotted, e.g. ``"robustness.scan_t1"``).
        start_s: start on the process's monotonic clock (perf_counter).
        duration_s: wall-clock duration in seconds.
        attrs: scalar annotations (transaction ids, levels, ...).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    duration_s: float
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_event(self) -> Dict[str, object]:
        """The JSON event object of the exported trace."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "origin": _ORIGIN,
            "attrs": dict(self.attrs),
        }


class _NullSpan:
    """The shared do-nothing span handle of :class:`NullTracer`."""

    __slots__ = ()

    #: Null spans have no identity.
    span_id: Optional[int] = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        """Discard annotations (tracing is disabled)."""


_NULL_SPAN = _NullSpan()


class _SkipSpan:
    """The per-tracer span handle for depth-capped spans.

    Entering bumps the owning tracer's skip counter so *nested* spans
    short-circuit on one integer check — nesting stays balanced while
    everything below the depth cap costs barely more than the
    :class:`NullTracer` path (the always-on per-request tracer of the
    service depends on this staying cheap).
    """

    __slots__ = ("_tracer",)

    span_id: Optional[int] = None

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __enter__(self) -> "_SkipSpan":
        self._tracer._skip += 1
        self._tracer.skipped += 1
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._skip -= 1
        return False

    def set(self, **attrs: object) -> None:
        """Discard annotations (the span is below the depth cap)."""


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Installed by default, so instrumentation points in hot code cost one
    method call and never allocate.  ``enabled`` lets call sites with
    non-trivial setup (building attribute dicts, restructuring a loop)
    skip it entirely.
    """

    enabled = False
    recording = False
    trace_memory = False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        """A no-op context manager (always the same shared instance)."""
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        """Discard the event count."""


#: The process-wide disabled tracer.
NULL_TRACER = NullTracer()


class _ActiveSpan:
    """Context manager recording one span on a :class:`Tracer`."""

    __slots__ = ("_tracer", "_name", "_attrs", "span_id", "_start", "_mem0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span_id: Optional[int] = None
        self._start = 0.0
        self._mem0: Optional[int] = None

    def set(self, **attrs: object) -> None:
        """Annotate the span (e.g. the outcome, once known)."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self.span_id = tracer._next_id
        tracer._next_id += 1
        tracer._stack.append(self.span_id)
        if tracer.trace_memory and len(tracer._stack) == 1:
            # Peak deltas are recorded per *top-level* span only (the
            # check/allocate/run roots): resetting the peak inside nested
            # spans would corrupt the enclosing span's reading.
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                self._mem0 = tracemalloc.get_traced_memory()[0]
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        tracer._stack.pop()
        parent = tracer._stack[-1] if tracer._stack else None
        duration = end - self._start
        if self._mem0 is not None and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            self._attrs["mem_peak_kib"] = round(
                max(0, peak - self._mem0) / 1024, 1
            )
            self._attrs["mem_current_kib"] = round(
                (current - self._mem0) / 1024, 1
            )
        assert self.span_id is not None
        tracer.spans.append(
            SpanRecord(
                self.span_id,
                parent,
                self._name,
                self._start,
                duration,
                self._attrs,
            )
        )
        return False


class Tracer:
    """A recording tracer: finished spans plus named event counters.

    The spans are the tracer's only record of durations; :attr:`registry`
    builds the per-phase histograms from them when it is read.

    Examples:
        >>> tracer = Tracer()
        >>> with tracer.span("outer", size=2):
        ...     with tracer.span("inner"):
        ...         tracer.count("events")
        >>> [s.name for s in tracer.spans]
        ['inner', 'outer']
        >>> tracer.spans[0].parent_id == tracer.spans[1].span_id
        True
        >>> tracer.registry.counters["events"]
        1
        >>> tracer.registry.histograms["inner"].count
        1
    """

    enabled = True

    def __init__(self, trace_memory: bool = False, max_depth: int = 0):
        #: With ``trace_memory`` (and :mod:`tracemalloc` started by the
        #: caller — the CLI's ``--trace-memory`` flag does both), every
        #: *top-level* span additionally records the tracemalloc peak and
        #: current deltas over its lifetime as ``mem_peak_kib`` /
        #: ``mem_current_kib`` attributes.
        self.trace_memory = bool(trace_memory)
        #: Spans nested deeper than ``max_depth`` are skipped (not
        #: recorded at all); ``0`` disables the cap.  The
        #: service's always-on per-request flight recorder uses a small
        #: cap so the deep analysis spans cost (almost) nothing.
        self.max_depth = max_depth
        #: Spans dropped by the depth cap (a plain count, not a counter
        #: — a dict update per skipped span would put work back into the
        #: hot path the cap exists to protect).
        self.skipped = 0
        self.spans: List[SpanRecord] = []
        self._counters: Dict[str, int] = {}
        self._stack: List[int] = []
        self._next_id = 1
        self._skip = 0
        self._skip_span = _SkipSpan(self)

    @property
    def recording(self) -> bool:
        """Whether a span opened *now* would actually be recorded.

        ``False`` while inside a depth-capped subtree.  Call sites with
        non-trivial span setup (building attribute dicts, draining a
        generator inside the span) check this instead of ``enabled`` so
        the always-on depth-capped request tracer keeps their lazy
        fast path — materializing a scan for a span that will be
        skipped would cost real work, not just bookkeeping.
        """
        if self._skip:
            return False
        return not (self.max_depth and len(self._stack) >= self.max_depth)

    @property
    def registry(self) -> MetricsRegistry:
        """A fresh registry of the counters and each span's duration
        under its name, in completion order (a read-only view)."""
        registry = MetricsRegistry()
        for record in self.spans:
            registry.record(record.name, record.duration_s)
        registry.merge_counters(self._counters)
        return registry

    def reset(self) -> None:
        """Clear recorded state so the tracer can take the next request.

        Keeps configuration (depth cap, flags); drops spans, counters,
        the skip count and the id/stack state.  The service reuses one
        request tracer per core through this instead of allocating a
        tracer per envelope.
        """
        self.spans.clear()
        self._counters.clear()
        self.skipped = 0
        self._stack.clear()
        self._next_id = 1
        self._skip = 0

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: object) -> Union[_ActiveSpan, _SkipSpan]:
        """A context manager timing one phase; nests under the active span.

        Below ``max_depth`` (when set) the shared skip handle is
        returned instead and nothing is recorded.
        """
        if self._skip or (self.max_depth and len(self._stack) >= self.max_depth):
            return self._skip_span
        return _ActiveSpan(self, name, attrs)

    def count(self, name: str, n: int = 1) -> None:
        """Count an event with no duration (robustness check, commit)."""
        self._counters[name] = self._counters.get(name, 0) + n

    def absorb(self, other: "Tracer", parent_id: Optional[int] = None) -> None:
        """Copy ``other``'s finished spans and counters into this tracer.

        The copies get fresh ids (ids are tracer-local) and keep their
        parent/child structure; ``other``'s roots are attached under
        ``parent_id``.  ``other`` itself is left unchanged.  Counters
        merge.
        """
        # Spans are in completion order, so a child precedes its parent:
        # every fresh id is assigned before any parent link is remapped.
        id_map = {
            record.span_id: self._next_id + offset
            for offset, record in enumerate(other.spans)
        }
        self._next_id += len(id_map)
        for record in other.spans:
            self.spans.append(
                SpanRecord(
                    id_map[record.span_id],
                    id_map.get(record.parent_id, parent_id),
                    record.name,
                    record.start_s,
                    record.duration_s,
                    dict(record.attrs),
                )
            )
        for name, n in other._counters.items():
            self.count(name, n)

    # -- export --------------------------------------------------------
    def export(self) -> Dict[str, object]:
        """The full trace as a JSON-ready dict (see :func:`validate_trace`)."""
        return {
            "version": TRACE_VERSION,
            "clock": "perf_counter",
            "origin": _ORIGIN,
            "spans": [record.as_event() for record in self.spans],
            "metrics": self.registry.as_dict(),
        }

    def write(self, path: Union[str, Path]) -> None:
        """Write the exported trace as JSON to ``path``."""
        Path(path).write_text(
            json.dumps(self.export(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )


# ---------------------------------------------------------------------------
# The current tracer
# ---------------------------------------------------------------------------

_current: Union[Tracer, NullTracer] = NULL_TRACER


def current_tracer() -> Union[Tracer, NullTracer]:
    """The tracer instrumentation points record into (NullTracer by default)."""
    return _current


def set_tracer(tracer: Union[Tracer, NullTracer]) -> Union[Tracer, NullTracer]:
    """Install ``tracer`` as current; returns the previous one."""
    global _current
    previous = _current
    _current = tracer
    return previous


@contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer]) -> Iterator[Union[Tracer, NullTracer]]:
    """Install ``tracer`` for the duration of the block, then restore.

    Examples:
        >>> tracer = Tracer()
        >>> with use_tracer(tracer):
        ...     current_tracer() is tracer
        True
        >>> current_tracer() is NULL_TRACER
        True
    """
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


# ---------------------------------------------------------------------------
# Trace validation (the documented export schema)
# ---------------------------------------------------------------------------

_SCALAR_TYPES = (str, int, float, bool, type(None))

_SPAN_FIELDS = {
    "span_id": int,
    "parent_id": (int, type(None)),
    "name": str,
    "start_s": (int, float),
    "duration_s": (int, float),
    "origin": str,
    "attrs": dict,
}

_NUMBER = (int, float)

#: Fields of each ``metrics.timers`` entry of a version-1 trace.
_TIMER_FIELDS = {
    "count": int,
    "total_s": _NUMBER,
    "min_s": _NUMBER,
    "max_s": _NUMBER,
    "mean_s": _NUMBER,
}

#: Timer fields tolerated as absent: version-1 traces from before
#: ``mean_s`` was added still load.
_TIMER_OPTIONAL_FIELDS = ("mean_s",)

#: Fields of each ``metrics.histograms`` entry of a version-2 trace.
_HISTOGRAM_FIELDS = {
    "count": int,
    "sum": _NUMBER,
    "min": _NUMBER,
    "max": _NUMBER,
    "mean": _NUMBER,
    "p50": _NUMBER,
    "p90": _NUMBER,
    "p99": _NUMBER,
}

#: Slack (seconds) for the parent-window containment check: child start
#: and end are computed from the same monotonic clock as the parent's,
#: so only float rounding can push them marginally outside.
_WINDOW_SLACK_S = 1e-6


def _fail(message: str) -> None:
    raise ValueError(f"invalid trace: {message}")


def validate_trace(data: object) -> None:
    """Validate an exported trace against the documented schema.

    The schema (version :data:`TRACE_VERSION`):

    * top level: ``{"version": 2, "clock": str, "origin": str,
      "spans": [...], "metrics": {"counters": {...},
      "histograms": {...}}}``;
    * each span: ``span_id`` (int, unique), ``parent_id`` (int id of
      another span, or null for roots), ``name`` (non-empty str),
      ``start_s``/``duration_s`` (numbers, both >= 0), ``origin``
      (str), ``attrs`` (object mapping str to scalars);
    * metrics: ``counters`` maps str to int; ``histograms`` maps each
      span name to its duration summary ``{"count", "sum", "min",
      "max", "mean", "p50", "p90", "p99"}`` (numbers, in seconds).

    Version-1 traces stay readable: there ``metrics.timers`` is required
    instead, mapping str to ``{"count", "total_s", "min_s", "max_s"}``
    numbers (plus ``mean_s`` on later version-1 exports), and
    ``histograms`` is not checked.

    Beyond per-field types, three *structural* invariants of the tracer
    are enforced (they harden :meth:`Tracer.absorb` re-parenting too):

    * spans are exported in completion order and a parent finishes after
      its children, so a span's parent record must appear **after** the
      span that references it (this also rules out self-parenting and
      parent cycles);
    * a child's ``[start, end]`` window must lie within its parent's —
      checked only when both share an ``origin``: traces from older
      builds hold worker spans, whose clocks are not comparable with
      the parent's;
    * durations and starts are non-negative (``perf_counter`` is
      monotonic from a non-negative reference on every platform we run).

    Raises :class:`ValueError` on the first violation; returns ``None``
    on success (used by tests and CI's trace-export smoke step).
    """
    if not isinstance(data, dict):
        _fail("top level must be a JSON object")
    version = data.get("version")
    if version not in (1, TRACE_VERSION) or isinstance(version, bool):
        _fail(f"version must be 1 or {TRACE_VERSION}, got {version!r}")
    for key, kind in (("clock", str), ("origin", str), ("spans", list), ("metrics", dict)):
        if not isinstance(data.get(key), kind):
            _fail(f"{key!r} must be a {kind.__name__}")
    seen_ids: set = set()
    spans: Sequence = data["spans"]
    for position, span in enumerate(spans):
        if not isinstance(span, dict):
            _fail(f"span #{position} must be an object")
        for name, kind in _SPAN_FIELDS.items():
            if name not in span:
                _fail(f"span #{position} misses {name!r}")
            if not isinstance(span[name], kind) or isinstance(span[name], bool):
                _fail(f"span #{position} field {name!r} has wrong type")
        if not span["name"]:
            _fail(f"span #{position} has an empty name")
        if span["duration_s"] < 0:
            _fail(f"span #{position} has negative duration")
        if span["start_s"] < 0:
            _fail(f"span #{position} has negative start")
        if span["span_id"] in seen_ids:
            _fail(f"duplicate span_id {span['span_id']}")
        seen_ids.add(span["span_id"])
        for attr, value in span["attrs"].items():
            if not isinstance(attr, str):
                _fail(f"span #{position} attr keys must be strings")
            if not isinstance(value, _SCALAR_TYPES) and not (
                isinstance(value, list)
                and all(isinstance(item, _SCALAR_TYPES) for item in value)
            ):
                _fail(f"span #{position} attr {attr!r} is not a scalar (or scalar list)")
    position_of = {span["span_id"]: i for i, span in enumerate(spans)}
    for position, span in enumerate(spans):
        parent = span["parent_id"]
        if parent is None:
            continue
        if parent not in seen_ids:
            _fail(f"span #{position} parent_id {parent} is not a span_id in the trace")
        parent_position = position_of[parent]
        if parent_position <= position:
            _fail(
                f"span #{position} references parent_id {parent} recorded at"
                f" or before it (#{parent_position}) — spans are exported in"
                " completion order, so a parent must appear after its children"
            )
        parent_span = spans[parent_position]
        if parent_span["origin"] == span["origin"]:
            start = span["start_s"]
            end = start + span["duration_s"]
            parent_start = parent_span["start_s"]
            parent_end = parent_start + parent_span["duration_s"]
            if (
                start < parent_start - _WINDOW_SLACK_S
                or end > parent_end + _WINDOW_SLACK_S
            ):
                _fail(
                    f"span #{position} window [{start}, {end}] lies outside"
                    f" its parent's [{parent_start}, {parent_end}]"
                )
    metrics = data["metrics"]
    if not isinstance(metrics.get("counters"), dict):
        _fail("'metrics.counters' must be an object")
    for name, value in metrics["counters"].items():
        if not isinstance(name, str) or not isinstance(value, int) or isinstance(value, bool):
            _fail(f"counter {name!r} must map a string to an integer")
    if version == 1:
        _check_table(metrics, "timers", _TIMER_FIELDS, _TIMER_OPTIONAL_FIELDS)
    else:
        _check_table(metrics, "histograms", _HISTOGRAM_FIELDS)


def _check_table(
    metrics: Mapping[str, object],
    table: str,
    fields: Mapping[str, object],
    optional: Sequence[str] = (),
) -> None:
    """Check that ``metrics[table]`` maps names to objects of numbers."""
    entries = metrics.get(table)
    if not isinstance(entries, dict):
        _fail(f"'metrics.{table}' must be an object")
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            _fail(f"{table} entry {name!r} must be an object")
        for field_name, kind in fields.items():
            if field_name in optional and field_name not in entry:
                continue
            value = entry.get(field_name)
            if not isinstance(value, kind) or isinstance(value, bool):
                _fail(f"{table} entry {name!r} field {field_name!r} has wrong type")


def phase_totals(trace: Mapping[str, object]) -> Dict[str, float]:
    """Total seconds per span name of a validated trace of either version.

    Version 2 keeps them as ``metrics.histograms[name].sum``, version 1
    as ``metrics.timers[name].total_s``, so traces of both versions
    compare with each other.
    """
    metrics = trace["metrics"]
    if trace["version"] == 1:
        return {name: float(t["total_s"]) for name, t in metrics["timers"].items()}
    return {name: float(h["sum"]) for name, h in metrics["histograms"].items()}


def validate_trace_file(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate a ``--trace`` JSON export; returns the parsed trace.

    Raises:
        ValueError: when the file is not UTF-8 JSON (JSON nested too
            deeply to decode included) or not a valid trace.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    validate_trace(data)
    return data
