"""Execution traces and their conversion to formal schedules.

The engine emits one :class:`TraceEvent` per executed operation, including
aborted attempts.  Robustness (Definition 2.7) talks about schedules over
*committed* transactions — the paper assumes aborted work is rolled back —
so :func:`trace_to_schedule` keeps exactly the events of each
transaction's committing attempt and rebuilds the multiversion schedule:
the operation order is the event order, the version order is the commit
order (the engine installs versions at commit) and the version function
comes from the versions each read actually observed.

This converter is the bridge that lets the test suite assert, execution by
execution, that the engine produces only schedules allowed under the
allocation (Definition 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..core.operations import OP0, Operation, commit, read, write
from ..core.schedules import MVSchedule, commit_order_version_order
from ..core.workload import Workload


#: Event kinds by trace schema version.  Version 1 knew only executed
#: operations; version 2 added ``block``/``unblock`` so latency
#: attribution can see lock waiting.  Old version-1 traces stay valid —
#: the new kinds are purely additive and ignored by every consumer that
#: reasons about committed work (:meth:`Trace.committed_events` filters
#: on read/write/commit).
EVENT_TRACE_VERSION = 2

EVENT_KINDS_V1 = ("begin", "read", "write", "commit", "abort")
EVENT_KINDS = EVENT_KINDS_V1 + ("block", "unblock")


@dataclass(frozen=True)
class TraceEvent:
    """One executed operation or scheduling event.

    Attributes:
        kind: ``"begin"``, ``"read"``, ``"write"``, ``"commit"``,
            ``"abort"``, ``"block"`` or ``"unblock"``.
        tid: the workload transaction id.
        attempt: 0-based attempt number (retries increment it).
        obj: the object, for reads, writes and block/unblock (the object
            whose write intent was waited on).
        observed: for reads, the workload tid whose version was observed
            (``0`` for the initial version); for ``block``, the workload
            tid of the intent holder being waited on.
    """

    kind: str
    tid: int
    attempt: int
    obj: Optional[str] = None
    observed: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "read":
            return f"R{self.tid}[{self.obj}]<-{self.observed}"
        if self.kind == "write":
            return f"W{self.tid}[{self.obj}]"
        if self.kind == "block":
            return f"BLK{self.tid}[{self.obj}]<-{self.observed}"
        if self.kind == "unblock":
            return f"UNB{self.tid}[{self.obj}]"
        return f"{self.kind[0].upper()}{self.tid}"


class Trace:
    """An append-only sequence of trace events."""

    def __init__(self, events: Optional[List[TraceEvent]] = None):
        self.events: List[TraceEvent] = list(events or [])

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def committed_attempts(self) -> Dict[int, int]:
        """For each transaction, the attempt number that committed."""
        return {
            event.tid: event.attempt
            for event in self.events
            if event.kind == "commit"
        }

    def committed_events(self) -> List[TraceEvent]:
        """The read/write/commit events of committing attempts, in order."""
        winners = self.committed_attempts()
        return [
            event
            for event in self.events
            if event.kind in ("read", "write", "commit")
            and winners.get(event.tid) == event.attempt
        ]

    def abort_count(self) -> int:
        """Total aborted attempts recorded in the trace."""
        return sum(1 for event in self.events if event.kind == "abort")

    def __str__(self) -> str:
        return " ".join(str(event) for event in self.events)


def trace_to_json(trace: Trace) -> Dict[str, object]:
    """The trace as a JSON-ready dict (see :func:`validate_event_trace`).

    Exports at :data:`EVENT_TRACE_VERSION`; ``obj``/``observed`` are only
    present when set, keeping read events and block events self-describing
    without padding every begin/commit with nulls.
    """
    events: List[Dict[str, object]] = []
    for event in trace.events:
        row: Dict[str, object] = {
            "kind": event.kind,
            "tid": event.tid,
            "attempt": event.attempt,
        }
        if event.obj is not None:
            row["obj"] = event.obj
        if event.observed is not None:
            row["observed"] = event.observed
        events.append(row)
    return {"version": EVENT_TRACE_VERSION, "events": events}


def _fail(message: str) -> None:
    raise ValueError(f"invalid event trace: {message}")


def validate_event_trace(data: object) -> None:
    """Validate an exported event trace against its declared version.

    The schema::

        {"version": 1 | 2,
         "events": [{"kind": str, "tid": int, "attempt": int,
                     "obj": str?, "observed": int?}, ...]}

    Version 1 allows the kinds ``begin/read/write/commit/abort``;
    version 2 additionally allows ``block/unblock``.  A version-1 trace
    therefore stays valid forever — the bump is purely additive.  Reads
    must carry ``obj``; blocks must carry ``obj`` and ``observed``.

    Raises:
        ValueError: on any schema violation, naming the offence.
    """
    if not isinstance(data, dict):
        _fail(f"top level must be a dict, got {type(data).__name__}")
    version = data.get("version")
    if version not in (1, EVENT_TRACE_VERSION):
        _fail(f"version must be 1 or {EVENT_TRACE_VERSION}, got {version!r}")
    allowed = EVENT_KINDS_V1 if version == 1 else EVENT_KINDS
    events = data.get("events")
    if not isinstance(events, list):
        _fail("events must be a list")
    for index, row in enumerate(events):
        where = f"events[{index}]"
        if not isinstance(row, dict):
            _fail(f"{where} must be a dict")
        kind = row.get("kind")
        if kind not in allowed:
            _fail(f"{where}.kind {kind!r} not allowed at version {version}")
        for key in ("tid", "attempt"):
            if not isinstance(row.get(key), int) or isinstance(row.get(key), bool):
                _fail(f"{where}.{key} must be an int, got {row.get(key)!r}")
        if "obj" in row and not isinstance(row["obj"], str):
            _fail(f"{where}.obj must be a string, got {row['obj']!r}")
        if "observed" in row and (
            not isinstance(row["observed"], int) or isinstance(row["observed"], bool)
        ):
            _fail(f"{where}.observed must be an int, got {row['observed']!r}")
        if kind in ("read", "write", "block", "unblock") and "obj" not in row:
            _fail(f"{where} ({kind}) must carry obj")
        if kind == "read" and "observed" not in row:
            _fail(f"{where} (read) must carry observed")
        if kind == "block" and "observed" not in row:
            _fail(f"{where} (block) must carry observed")
        unknown = set(row) - {"kind", "tid", "attempt", "obj", "observed"}
        if unknown:
            _fail(f"{where} has unknown keys {sorted(unknown)}")


def trace_from_json(data: object) -> Trace:
    """Rebuild a :class:`Trace` from :func:`trace_to_json` output.

    Validates first, so a malformed document raises ``ValueError`` rather
    than producing a half-parsed trace.
    """
    validate_event_trace(data)
    assert isinstance(data, dict)
    return Trace(
        [
            TraceEvent(
                row["kind"],
                row["tid"],
                row["attempt"],
                row.get("obj"),
                row.get("observed"),
            )
            for row in data["events"]  # type: ignore[union-attr]
        ]
    )


def trace_to_schedule(trace: Trace, workload: Workload) -> MVSchedule:
    """Rebuild the formal multiversion schedule of a trace's committed work.

    Args:
        trace: an execution trace of ``workload``.
        workload: the transactions that were executed.  Transactions that
            never committed in the trace must not exist (the simulator
            always runs to completion, so in practice all do).

    Returns:
        The :class:`~repro.core.schedules.MVSchedule` with the trace's
        operation order, the commit-order version order and the observed
        version function.
    """
    order: List[Operation] = []
    version_function: Dict[Operation, Operation] = {}
    for event in trace.committed_events():
        if event.kind == "read":
            assert event.obj is not None
            op = read(event.tid, event.obj)
            order.append(op)
            if event.observed:
                version_function[op] = write(event.observed, event.obj)
            else:
                version_function[op] = OP0
        elif event.kind == "write":
            assert event.obj is not None
            order.append(write(event.tid, event.obj))
        else:
            order.append(commit(event.tid))
    version_order = commit_order_version_order(workload, order)
    return MVSchedule(workload, order, version_order, version_function)
