"""Stored procedures with value semantics on the MVCC engine.

The formal model treats operations as opaque reads and writes.  Real
anomalies, however, show up as *broken application invariants*: a
write-skew execution of SmallBank leaves a customer's total balance
negative.  This module runs Python generator *procedures* — reads yield
values, writes compute them — so executions carry data and invariants
can be checked on the final state:

    def write_check(ctx):
        savings = yield Read(f"savings:{ctx['c']}")
        checking = yield Read(f"checking:{ctx['c']}")
        yield Write(f"checking:{ctx['c']}", checking - ctx["amount"])

:func:`run_procedures` runs the calls on the discrete-event simulator,
one session per call, at :func:`~repro.mvcc.simulator.exploration_config`.
Each attempt of a call runs its procedure inside a simulator body that
turns read versions into values and commits when the procedure returns.
An abort (first-committer-wins, SSI or a deadlock victim) reruns the
procedure from its start, so a retried attempt recomputes its values,
exactly like a real application rerunning a failed transaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List, Mapping, Optional, Union

from ..core.isolation import Allocation, IsolationLevel
from ..core.operations import commit
from .simulator import DiscreteEventSimulator, TransactionBody, exploration_config
from .trace import Trace


@dataclass(frozen=True)
class Read:
    """Yield this from a procedure to read an object; receives its value."""

    obj: str
    is_read = True
    is_write = False


@dataclass(frozen=True)
class Write:
    """Yield this from a procedure to write a value to an object."""

    obj: str
    value: object
    is_read = False
    is_write = True


#: A procedure body: a generator function taking the parameter mapping.
ProcedureBody = Callable[..., Generator[Union[Read, Write], object, None]]


@dataclass(frozen=True)
class ProcedureCall:
    """One invocation: a transaction id, a procedure and its parameters."""

    tid: int
    body: ProcedureBody
    params: Mapping[str, object] = field(default_factory=dict)
    level: Optional[IsolationLevel] = None


@dataclass
class ProcedureRun:
    """The outcome of a procedure-workload execution.

    Attributes:
        trace: the operation-level trace (convertible to a schedule).
        final_state: committed value of every written object, plus the
            initial values of objects never overwritten.
        commits: committed procedure calls.
        aborts: aborted attempts by reason.
    """

    trace: Trace
    final_state: Dict[str, object]
    commits: int
    aborts: Dict[str, int]


def _level(call: ProcedureCall, allocation: Optional[Allocation]) -> IsolationLevel:
    if call.level is not None:
        return call.level
    return allocation[call.tid] if allocation is not None else IsolationLevel.SI


def _call_body(
    call: ProcedureCall, initial_state: Mapping[str, object]
) -> TransactionBody:
    """One attempt of ``call`` as a simulator body.

    A read's version becomes the stored value (for the initial version,
    the initial state's value, ``None`` if the object is not listed);
    the commit follows once the procedure returns.
    """
    procedure = call.body(dict(call.params))
    result: object = None
    while True:
        try:
            action = procedure.send(result)
        except StopIteration:
            break
        if not isinstance(action, (Read, Write)):
            raise TypeError(f"procedures must yield Read or Write, got {action!r}")
        version = yield action
        result = None
        if isinstance(action, Read):
            assert version is not None
            if version.is_initial:
                result = initial_state.get(action.obj)
            else:
                result = version.value
    yield commit(call.tid)


def run_procedures(
    calls: List[ProcedureCall],
    allocation: Optional[Allocation] = None,
    initial_state: Optional[Mapping[str, object]] = None,
    seed: Optional[int] = 0,
    max_attempts: int = 50,
) -> ProcedureRun:
    """Run procedure calls concurrently on the discrete-event simulator.

    Args:
        calls: the procedure invocations (one transaction each, distinct
            tids, else ``ValueError``).
        allocation: isolation level per transaction id; a call's explicit
            ``level`` overrides it, and SI applies when neither is given.
        initial_state: starting value per object (unlisted objects read as
            ``None``).
        seed: the run's RNG seed (``None``: constant service times).
        max_attempts: per-call retry budget.
    """
    tids = [call.tid for call in calls]
    if len(set(tids)) != len(tids):
        raise ValueError("procedure calls must have distinct transaction ids")
    initial = dict(initial_state or {})
    levels = Allocation({call.tid: _level(call, allocation) for call in calls})
    simulator = DiscreteEventSimulator(
        calls,
        levels,
        exploration_config(len(calls), seed, max_attempts),
        body_factory=lambda call: _call_body(call, initial),
    )
    trace = simulator.run()
    store = simulator.engine.store
    final_state = dict(initial)
    for obj in store.objects():
        final_state[obj] = store.latest_committed(obj).value
    return ProcedureRun(
        trace=trace,
        final_state=final_state,
        commits=simulator.stats.commits,
        aborts=dict(simulator.stats.aborts),
    )
