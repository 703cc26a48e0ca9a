"""Observability for the analysis engines: spans, metrics, trace export.

Everything the ``--trace``/``--stats`` CLI flags and the benchmark
profiling hooks build on:

* :class:`Tracer` / :class:`NullTracer` — span recording with nesting,
  a no-op stand-in installed by default (zero behavior change, near-zero
  cost when disabled);
* :class:`MetricsRegistry` — per-phase timers plus named counters,
  aggregated from the span stream;
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
* :func:`diff_traces` / :func:`compare_bench` — noise-aware regression
  verdicts between two traces or two ``--bench-json`` baselines
  (``repro trace diff`` / ``repro bench compare``, the CI gate).

See ``docs/observability.md`` for the span model and the trace format.
"""

from .diff import (
    BENCH_SERIES,
    DEFAULT_ABS_FLOOR_S,
    DEFAULT_MAX_REGRESS,
    DiffEntry,
    DiffReport,
    compare_bench,
    compare_bench_files,
    diff_timers,
    diff_trace_files,
    diff_traces,
    load_bench_file,
)
from .eventlog import (
    EventLog,
    RetainedTrace,
    TraceRetainer,
    new_request_id,
    validate_event,
    validate_eventlog_file,
)
from .metrics import MetricsRegistry, TimerStat, prometheus_text
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
    set_tracer,
    use_tracer,
    validate_trace,
    validate_trace_file,
)

__all__ = [
    "BENCH_SERIES",
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
    "TimerStat",
    "TraceRetainer",
    "Tracer",
    "WindowedSeries",
    "build_profile",
    "compare_bench",
    "compare_bench_files",
    "critical_path",
    "current_tracer",
    "diff_timers",
    "diff_trace_files",
    "diff_traces",
    "folded_stacks",
    "inclusive_totals",
    "load_bench_file",
    "new_request_id",
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
