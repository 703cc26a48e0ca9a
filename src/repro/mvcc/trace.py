"""Execution traces and their conversion to formal schedules.

The simulator records one :class:`TraceEvent` per executed operation,
including those of aborted attempts, and one per scheduling event (a
writer parking behind a write intent, or waking up).  A :class:`Trace`
lives in memory only: there is no file format.

Robustness (Definition 2.7) talks about schedules over *committed*
transactions — the paper assumes aborted work is rolled back — so
:func:`trace_to_schedule` keeps exactly the events of each
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


@dataclass(frozen=True)
class TraceEvent:
    """One executed operation or scheduling event.

    Attributes:
        kind: ``"begin"``, ``"read"``, ``"write"``, ``"commit"`` or
            ``"abort"`` for operations; ``"block"`` or ``"unblock"`` for
            scheduling, which :meth:`Trace.committed_events` leaves out.
        tid: the instance's transaction id.
        attempt: 0-based attempt number (retries increment it).
        obj: the object, for reads, writes and block/unblock (the object
            whose write intent was waited on).
        observed: for reads, the tid whose version was observed (``0``
            for the initial version); for ``block``, the tid of the
            intent holder being waited on.
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
