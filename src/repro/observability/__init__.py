"""Observability for the analysis engines: spans, metrics, trace export.

Everything the ``--trace``/``--stats`` CLI flags and the benchmark
profiling hooks build on:

* :class:`Tracer` / :class:`NullTracer` — span recording with nesting,
  a no-op stand-in installed by default (zero behavior change, near-zero
  cost when disabled);
* :class:`MetricsRegistry` — per-phase duration histograms plus named
  counters, aggregated from the span stream;
  :func:`prometheus_text` renders a registry for the daemon's
  ``/metrics`` endpoint;
* :func:`use_tracer` / :func:`current_tracer` — the module-global
  current tracer the instrumented hot paths record into;
* :func:`validate_trace` / :func:`validate_trace_file` — the documented
  JSON export schema, enforced by tests and CI's trace smoke step;
* :func:`build_profile` / :func:`folded_stacks` / :func:`critical_path`
  — trace analysis: the span forest aggregated into a profile tree with
  inclusive/self times, flamegraph-ready folded stacks (``repro trace
  report`` / ``trace flame``);
* :func:`diff_traces` — a noise-aware regression verdict between two
  traces of either format version (``repro trace diff``).

See ``docs/observability.md`` for the span model and the trace format.
"""

from .diff import (
    DEFAULT_ABS_FLOOR_S,
    DEFAULT_MAX_REGRESS,
    DiffEntry,
    DiffReport,
    diff_totals,
    diff_trace_files,
    diff_traces,
)
from .eventlog import (
    EventLog,
    RetainedTrace,
    TraceRetainer,
    new_request_id,
    validate_event,
    validate_eventlog_file,
)
from .metrics import MetricsRegistry, prometheus_text
from .telemetry import StreamingHistogram, WindowedSeries
from .profile import (
    ProfileNode,
    ROOT_KEY,
    build_profile,
    critical_path,
    folded_stacks,
    inclusive_totals,
    profile_trace_file,
    render_critical_path,
    render_profile,
    render_trace_report,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    TRACE_VERSION,
    Tracer,
    current_tracer,
    phase_totals,
    set_tracer,
    use_tracer,
    validate_trace,
    validate_trace_file,
)

__all__ = [
    "DEFAULT_ABS_FLOOR_S",
    "DEFAULT_MAX_REGRESS",
    "DiffEntry",
    "DiffReport",
    "EventLog",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProfileNode",
    "ROOT_KEY",
    "RetainedTrace",
    "SpanRecord",
    "StreamingHistogram",
    "TRACE_VERSION",
    "TraceRetainer",
    "Tracer",
    "WindowedSeries",
    "build_profile",
    "critical_path",
    "current_tracer",
    "diff_totals",
    "diff_trace_files",
    "diff_traces",
    "folded_stacks",
    "inclusive_totals",
    "new_request_id",
    "phase_totals",
    "profile_trace_file",
    "prometheus_text",
    "render_critical_path",
    "render_profile",
    "render_trace_report",
    "set_tracer",
    "use_tracer",
    "validate_event",
    "validate_eventlog_file",
    "validate_trace",
    "validate_trace_file",
]
