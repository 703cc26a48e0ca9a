"""A from-scratch multiversion concurrency-control engine simulator.

The paper's Definitions 2.3/2.4 abstract the behaviour of Postgres-style
multiversion engines.  This subpackage implements that behaviour
operationally — version chains, statement vs transaction snapshots,
first-committer-wins aborts, SSI dangerous-structure aborts — so that the
theory can be validated against executions and the throughput motivation
(footnote 1: RC outperforms SI under contention) can be measured.

Every execution trace converts back into a formal
:class:`~repro.core.schedules.MVSchedule` (see :mod:`repro.mvcc.trace`),
and the test suite asserts that each trace is allowed under its
allocation per Definition 2.4 — the engine and the formal semantics are
kept honest against each other.

One driver runs every execution: the discrete-event simulator of
:mod:`repro.mvcc.simulator`, through :func:`simulate_workload` for
static workloads and :func:`run_procedures` for stored procedures that
carry values.
"""

from .engine import MVCCEngine, TransactionAborted, TransactionBlocked
from .procedures import ProcedureCall, ProcedureRun, Read, Write, run_procedures
from .simulator import (
    DiscreteEventSimulator,
    SimConfig,
    SimStats,
    exploration_config,
    simulate_workload,
)
from .storage import Version, VersionedStore
from .sweep import SweepPoint, SweepResult, contention_sweep
from .trace import (
    EVENT_TRACE_VERSION,
    Trace,
    TraceEvent,
    trace_from_json,
    trace_to_json,
    trace_to_schedule,
    validate_event_trace,
)

__all__ = [
    "DiscreteEventSimulator",
    "EVENT_TRACE_VERSION",
    "MVCCEngine",
    "ProcedureCall",
    "ProcedureRun",
    "Read",
    "SimConfig",
    "SimStats",
    "SweepPoint",
    "SweepResult",
    "Trace",
    "TraceEvent",
    "TransactionAborted",
    "TransactionBlocked",
    "Version",
    "VersionedStore",
    "Write",
    "contention_sweep",
    "exploration_config",
    "run_procedures",
    "simulate_workload",
    "trace_from_json",
    "trace_to_json",
    "trace_to_schedule",
    "validate_event_trace",
]
