"""The discrete-event simulator: the one driver of the MVCC engine.

:class:`DiscreteEventSimulator` runs transaction programs under
simulated time:

* each program runs as a **generator coroutine** that yields actions and
  receives read results back (``result = yield op``): an action with
  ``is_read`` or ``is_write`` set is a read or a write of ``obj`` (a
  write passes its ``value`` to the engine when it has one), any other
  action is the commit;
* the clock advances through a **heap of events** ``(time, seq, session)``
  — nothing executes between events, so a million-operation run costs a
  million heap pops, not a million polls per blocked writer;
* write intents become **FIFO wait-queues with explicit wake-ups**: a
  blocked writer parks in the queue of its object and consumes no events
  until the intent holder commits or aborts, which wakes exactly the
  queue head;
* **deadlocks** are detected at block time by walking the wait-for graph
  (session → intent holder); the victim is the cycle member with the
  fewest attempts (ties to the lower session id), so aborts spread
  instead of starving one program;
* **per-transaction latency** is recorded from arrival (the session picks
  the instance up) to commit;
* every attempt of an instance runs under the instance's tid, since the
  engine forgets an aborted attempt;
* an event does only the work that depends on what is simulated: each
  instance's level and service time are resolved once, when it is
  dealt, and nothing is traced unless ``record_trace`` is on.

Every committed trace is allowed under its allocation (Definition 2.4):
first-committer-wins and SSI dangerous-structure aborts are the engine's,
and the seed only jitters operation service times, so one seed fixes the
whole run.  The property suites pin this.

Static workloads run through :func:`simulate_workload`, whose
``repeat`` rounds clone no transaction (each instance is a fresh tid
over its program's operations); stored procedures with values run
through :func:`repro.mvcc.procedures.run_procedures`.  Callers that audit
executions rather than time them run at :func:`exploration_config`,
which spreads service times widely enough to reach most interleavings.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple
from typing import Protocol, Sequence

from ..core.isolation import Allocation, IsolationLevel
from ..core.operations import read as read_op, write as write_op
from ..core.transactions import Transaction
from ..core.workload import Workload
from ..observability import StreamingHistogram, WindowedSeries, current_tracer
from .engine import MVCCEngine, TransactionAborted, TransactionBlocked
from .storage import Version
from .trace import Trace, TraceEvent

#: A transaction body: yields actions (an
#: :class:`~repro.core.operations.Operation`, or any
#: object with ``is_read``, ``is_write`` and ``obj``, plus ``value`` on a
#: write), receives read results.
TransactionBody = Generator[Any, Optional[Version], None]


class Program(Protocol):
    """What the simulator runs: anything with a transaction id, such as a
    :class:`~repro.core.transactions.Transaction` or a
    :class:`~repro.mvcc.procedures.ProcedureCall`."""

    @property
    def tid(self) -> int: ...


def transaction_coroutine(txn: Transaction) -> TransactionBody:
    """The default coroutine body: replay the transaction's program order.

    Reads receive the observed :class:`~repro.mvcc.storage.Version` back
    from the simulator; a static workload body ignores it, but a custom
    body factory may branch on values.
    """
    result: Optional[Version] = None
    for op in txn.operations:
        result = yield op
        del result  # static bodies are value-oblivious


#: Mean simulated service time of one operation.
SERVICE_TIME = 1.0
#: Service-time surcharge per operation of an SSI transaction, the
#: conflict-tracking cost of serializability (Alomari et al. [4]) that
#: transactions Algorithm 2 sends to RC/SI skip.
SSI_SURCHARGE = 0.25
#: Simulated delay before an aborted instance retries, per attempt so far.
RETRY_BACKOFF = 2.0
#: Width, in simulated time, and count of the windows
#: :meth:`SimStats.series_dict` reports (older windows are recycled).
TELEMETRY_WINDOW = 50.0
TELEMETRY_WINDOWS = 256


@dataclass(frozen=True)
class SimConfig:
    """What one simulation run's callers choose.

    Construction rejects, with a ``ValueError`` naming the field, the
    values the simulator cannot honour.

    Attributes:
        sessions: concurrent client sessions, an int of at least 1;
            instances are dealt to sessions round-robin.
        seed: RNG seed for service-time jitter, an int, float, str or
            bytes; ``None`` disables jitter entirely (constant service
            times).
        max_attempts: per-instance retry budget, an int of at least 1,
            before the run raises ``RuntimeError`` (livelock guard).
        jitter: ± fraction of :data:`SERVICE_TIME` drawn uniformly per
            operation, from 0 to 1 — the only use of the RNG, so one seed
            fixes the whole run.
        record_trace: record :class:`TraceEvent`s; turning it off changes
            nothing but the trace (the byte-identity the tests pin).
        compact_every: commits between ``engine.compact()`` calls, an int
            of at least 0 (``0`` disables compaction; long runs then grow
            unboundedly).
    """

    sessions: int = 8
    seed: Optional[int] = 0
    max_attempts: int = 50
    jitter: float = 0.5
    record_trace: bool = True
    compact_every: int = 256

    def __post_init__(self) -> None:
        for name in ("sessions", "max_attempts", "compact_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        # A jitter above 1 schedules events in the past: the clock would
        # run backwards.
        if not isinstance(self.jitter, (int, float)) or not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be between 0 and 1, got {self.jitter!r}")
        if self.compact_every < 0:
            raise ValueError(f"compact_every must be >= 0, got {self.compact_every}")
        if not isinstance(
            self.seed, (type(None), int, float, str, bytes, bytearray)
        ):
            raise ValueError(
                "seed must be None, an int, float, str or bytes,"
                f" got {self.seed!r}"
            )


def exploration_config(
    sessions: int, seed: Optional[int] = 0, max_attempts: int = 50
) -> SimConfig:
    """The setting for runs that audit executions rather than time them.

    Service times spread over the whole of ``[0, 2 * SERVICE_TIME]``
    (``jitter=1.0``), so seeds reach far more interleavings than at the
    default jitter.  ``repro simulate FILE``, :func:`run_procedures
    <repro.mvcc.procedures.run_procedures>` and the execution audits of
    the test suite run at this setting; the contention sweeps keep the
    defaults.

    Args:
        sessions: concurrent sessions (at least one is used).
        seed: RNG seed of the run.
        max_attempts: per-instance retry budget.
    """
    return SimConfig(
        sessions=max(1, sessions), seed=seed, max_attempts=max_attempts, jitter=1.0
    )


@dataclass
class SimStats:
    """Aggregate statistics of one simulated run.

    Each commit and abort is recorded once, as plain numbers;
    :meth:`series_dict` builds the time-series from them when it is read.

    Attributes:
        commits: instances committed.
        aborts: abort counts by reason.
        operations: engine operations executed (reads, writes, commit
            attempts — the unit of the ≥1M-operations criterion).
        blocks: times a writer parked in a wait-queue.
        retries: instance attempts beyond the first.
        sim_time: simulated clock at the end of the run.
        wall_s: real seconds the run took.
        wait_time: total simulated time spent parked in wait-queues.
        latencies: per committed instance, arrival-to-commit simulated
            time, in commit order.
        commit_times: the simulated time of each commit, in commit order.
        abort_times: the simulated time of each abort, in abort order.
    """

    commits: int = 0
    aborts: Dict[str, int] = field(default_factory=dict)
    operations: int = 0
    blocks: int = 0
    retries: int = 0
    sim_time: float = 0.0
    wall_s: float = 0.0
    wait_time: float = 0.0
    latencies: List[float] = field(default_factory=list)
    commit_times: List[float] = field(default_factory=list)
    abort_times: List[float] = field(default_factory=list)

    @property
    def total_aborts(self) -> int:
        """Aborts across all reasons."""
        return sum(self.aborts.values())

    @property
    def throughput(self) -> float:
        """Committed instances per unit of simulated time."""
        return self.commits / self.sim_time if self.sim_time else 0.0

    @property
    def abort_rate(self) -> float:
        """Aborted attempts per started attempt."""
        attempts = self.commits + self.total_aborts
        return self.total_aborts / attempts if attempts else 0.0

    def record_abort(self, reason: str, when: float) -> None:
        """Count one abort for ``reason`` at simulated time ``when``."""
        self.aborts[reason] = self.aborts.get(reason, 0) + 1
        self.abort_times.append(when)

    def record_commit(self, when: float, latency: float) -> None:
        """Count one commit at simulated time ``when``."""
        self.commits += 1
        self.latencies.append(latency)
        self.commit_times.append(when)

    def series_dict(self) -> Dict[str, object]:
        """The windowed time-series, JSON-ready, built from the recorded
        commits and aborts on each call.

        One entry per retained window, oldest first: commit count
        (throughput is ``commits / window``), abort count, and the mean
        commit latency of the window — the over-time curves the sweep
        JSON exports per cell.  ``latency`` summarizes a streaming
        histogram of the commit latencies (count/sum/extrema/quantiles).
        """
        commit_series = WindowedSeries(TELEMETRY_WINDOW, TELEMETRY_WINDOWS)
        abort_series = WindowedSeries(TELEMETRY_WINDOW, TELEMETRY_WINDOWS)
        histogram = StreamingHistogram()
        for when, latency in zip(self.commit_times, self.latencies):
            commit_series.record(when, latency)
            histogram.record(latency)
        for when in self.abort_times:
            abort_series.record(when)
        commits = {w["start"]: w for w in commit_series.series()}
        aborts = {w["start"]: w["count"] for w in abort_series.series()}
        windows = []
        for start in sorted(set(commits) | set(aborts)):
            window = commits.get(start)
            count = int(window["count"]) if window else 0
            total = float(window["sum"]) if window else 0.0
            windows.append(
                {
                    "start": start,
                    "commits": count,
                    "aborts": int(aborts.get(start, 0)),
                    "mean_latency": total / count if count else 0.0,
                }
            )
        return {
            "window": TELEMETRY_WINDOW,
            "windows": windows,
            "latency": histogram.as_dict(),
        }

    def latency_percentiles(self) -> Dict[str, float]:
        """``p50``/``p95``/``p99`` of commit latency (0.0 when empty)."""
        if not self.latencies:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(self.latencies)
        last = len(ordered) - 1
        return {
            name: ordered[min(last, int(q * len(ordered)))]
            for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
        }


@dataclass(slots=True)
class _Instance:
    """One program awaiting execution, resolved once when it is dealt:
    its isolation level and the mean and jitter spread of its
    operations' service time."""

    tid: int
    program: Program
    level: IsolationLevel
    base: float
    spread: float


@dataclass(slots=True)
class _SimSession:
    """One client session working through its queue of instances."""

    session_id: int
    queue: Deque[_Instance] = field(default_factory=deque)
    current: Optional[_Instance] = None
    body: Optional[TransactionBody] = None
    pending_op: Optional[Any] = None
    last_result: Optional[Version] = None
    attempt: int = 0
    begun: bool = False
    arrival: float = 0.0
    blocked_on: Optional[str] = None
    block_start: float = 0.0
    held: List[str] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.current is None and not self.queue


@dataclass(slots=True)
class _Replica:
    """One instance of a base transaction: a fresh instance tid over the
    base program's operations.  The operations keep the base tid; the
    simulator reads only their kind and object, and traces the instance
    tid."""

    tid: int
    operations: Tuple[Any, ...]


def _instances(
    workload: Workload, allocation: Allocation, repeat: int
) -> Tuple[List[Tuple[int, Transaction]], Allocation]:
    """The instances of ``repeat`` rounds over ``workload``, in round
    order, and their allocation.

    Each instance is ``(instance tid, base transaction)``, with instance
    tids from 1 upwards, and is allocated its base transaction's level.
    (One round needs no instances: its callers run the workload's own
    transactions.)  A ``repeat`` below 1 is a ``ValueError``.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    bases = list(workload)
    count = len(bases)
    instances = [(index + 1, bases[index % count]) for index in range(repeat * count)]
    levels = [allocation[base.tid] for base in bases]
    return instances, Allocation(
        {tid: levels[(tid - 1) % count] for tid, _ in instances}
    )


def replicate_workload(
    workload: Workload, allocation: Allocation, repeat: int = 1
) -> Tuple[Workload, Allocation, Dict[int, int]]:
    """Clone a workload ``repeat`` times with fresh instance tids.

    Allocation is decided once per *program* (the base workload) and
    inherited by every instance of it — deciding on the instance level
    would be both infeasible (the allocation problem over 100k
    transactions) and wrong (real systems allocate per statement/program,
    not per execution).  With ``repeat == 1`` the base workload and
    allocation are returned unchanged; a ``repeat`` below 1 is a
    ``ValueError``.

    :func:`simulate_workload` runs the same instances without cloning
    them; this function is for callers that need the instances as a
    :class:`~repro.core.workload.Workload`, such as converting a
    replicated run's trace with
    :func:`~repro.mvcc.trace.trace_to_schedule`.

    Returns:
        ``(instances, instance_allocation, instance_to_base)``.
    """
    if repeat == 1:
        return workload, allocation, {tid: tid for tid in workload.tids}
    instances, instance_allocation = _instances(workload, allocation, repeat)
    transactions = [
        Transaction(
            tid,
            [
                read_op(tid, op.obj) if op.is_read else write_op(tid, op.obj)
                for op in base.body
            ],
        )
        for tid, base in instances
    ]
    return (
        Workload(transactions),
        instance_allocation,
        {tid: base.tid for tid, base in instances},
    )


class DiscreteEventSimulator:
    """Executes programs under simulated time on the MVCC engine.

    Each program is resolved once, when it is dealt to its session: its
    isolation level and the mean and jitter spread of its operations'
    service time travel with it, so an event looks nothing up.

    Args:
        workload: the programs to run, each with a distinct ``tid``: a
            :class:`~repro.core.workload.Workload`'s transactions, or any
            sequence of :class:`Program` objects.
        allocation: the isolation level of each tid (a tid it leaves out
            raises :class:`~repro.core.workload.WorkloadError` here).
        config: simulation knobs (see :class:`SimConfig`).
        body_factory: builds a fresh coroutine body for each attempt of
            a program; defaults to :func:`transaction_coroutine` (replay
            a transaction's program order).
    """

    def __init__(
        self,
        workload: Sequence[Program],
        allocation: Allocation,
        config: Optional[SimConfig] = None,
        body_factory: Callable[[Any], TransactionBody] = transaction_coroutine,
    ):
        self.workload = workload
        self.allocation = allocation
        self.config = config = config or SimConfig()
        self._body_factory = body_factory
        # Per level, the mean service time of one operation and the most
        # the jitter moves it either way.
        timing = {}
        for level in IsolationLevel:
            surcharge = SSI_SURCHARGE if level is IsolationLevel.SSI else 0.0
            base = SERVICE_TIME * (1.0 + surcharge)
            timing[level] = (base, config.jitter * base)
        count = max(1, min(config.sessions, len(workload)))
        self._sessions = [_SimSession(i) for i in range(count)]
        for index, program in enumerate(workload):
            level = allocation[program.tid]
            self._sessions[index % count].queue.append(
                _Instance(program.tid, program, level, *timing[level])
            )
        self._rng = random.Random(config.seed) if config.seed is not None else None
        #: The RNG draw of a jittered service time; ``None`` when service
        #: times are constant (no seed, or no jitter), so nothing is drawn.
        self._draw = (
            self._rng.random if self._rng is not None and config.jitter else None
        )
        self._tracing = config.record_trace
        self.engine = MVCCEngine()
        self.trace = Trace()
        self.stats = SimStats()
        self._now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, int]] = []
        self._wait_queues: Dict[str, Deque[int]] = {}
        self._tid_session: Dict[int, int] = {}
        self._compact_every = config.compact_every
        self._commits_since_compact = 0

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _service(self, instance: _Instance) -> float:
        """The service time of one operation of ``instance`` (one RNG
        draw when service times jitter)."""
        if self._draw is None:
            return instance.base
        return instance.base + instance.spread * (2.0 * self._draw() - 1.0)

    def _schedule(self, session: _SimSession, delay: float) -> None:
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, session.session_id))

    def _emit(self, *args: object) -> None:
        """Record a trace event; callers emit only when ``record_trace``
        is on."""
        self.trace.append(TraceEvent(*args))  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> Trace:
        """Run every instance to commit and return the execution trace."""
        started = _time.perf_counter()
        with current_tracer().span(
            "mvcc.run",
            instances=len(self.workload),
            sessions=len(self._sessions),
        ) as run_span:
            for session in self._sessions:
                if session.queue:
                    self._schedule(session, self._service(session.queue[0]))
            heap, sessions, step = self._heap, self._sessions, self._step
            while heap:
                self._now, _, session_id = heappop(heap)
                step(sessions[session_id])
            stranded = [s for s in self._sessions if not s.done]
            if stranded:
                raise RuntimeError(
                    f"simulation stalled with sessions {[s.session_id for s in stranded]}"
                    " neither runnable nor waiting"
                )
            self.stats.sim_time = self._now
            run_span.set(
                commits=self.stats.commits,
                aborts=self.stats.total_aborts,
                operations=self.stats.operations,
                sim_time=self.stats.sim_time,
            )
        self.stats.wall_s = _time.perf_counter() - started
        return self.trace

    def _step(self, session: _SimSession) -> None:
        """Run one event of ``session``: its next (or blocked) operation,
        beginning its instance's attempt first when it has not begun."""
        instance = session.current
        if instance is None:
            if not session.queue:
                return
            instance = session.current = session.queue.popleft()
            session.attempt = 0
            session.arrival = self._now
            self._reset_attempt(session)
            self._tid_session[instance.tid] = session.session_id
        engine = self.engine
        tid = instance.tid
        if not session.begun:
            engine.begin(tid, instance.level)
            session.begun = True
            if self._tracing:
                self._emit("begin", tid, session.attempt, None, None)
        op = session.pending_op
        if op is None:
            try:
                op = session.pending_op = session.body.send(session.last_result)
            except StopIteration:
                raise RuntimeError(
                    f"transaction {tid} body ended without a commit"
                ) from None
            session.last_result = None
        self.stats.operations += 1
        try:
            if op.is_read:
                version = session.last_result = engine.read(tid, op.obj)
                if self._tracing:
                    self._emit("read", tid, session.attempt, op.obj, version.writer_tid)
            elif op.is_write:
                # A procedure's write carries its value; an operation of
                # a static transaction has none and writes its attempt.
                value = getattr(op, "value", (tid, session.attempt))
                engine.write(tid, op.obj, value)
                if self._tracing:
                    self._emit("write", tid, session.attempt, op.obj, None)
                session.held.append(op.obj)
            else:
                engine.commit(tid)
                if self._tracing:
                    self._emit("commit", tid, session.attempt, None, None)
                self.stats.record_commit(self._now, self._now - session.arrival)
                self._release(session)
                session.current = None
                session.body = None
                if self._compact_every:
                    self._commits_since_compact += 1
                    if self._commits_since_compact >= self._compact_every:
                        self._commits_since_compact = 0
                        engine.compact()
                if session.queue:
                    self._schedule(session, self._service(session.queue[0]))
                return
        except TransactionBlocked as blocked:
            self._park(session, blocked)
            return
        except TransactionAborted as aborted:
            if self._tracing:
                self._emit("abort", tid, session.attempt, None, None)
            self.stats.record_abort(aborted.reason, self._now)
            self._release(session)
            # A first-committer-wins abort on a freshly woken writer leaves
            # the freed intent unclaimed: pass the wake-up on, or the rest
            # of the queue sleeps forever.
            if op.is_write and engine.intent_holder(op.obj) is None:
                self._wake(op.obj)
            self._retry(session)
            return
        # The next operation follows one service time later (inline
        # ``_service`` and ``_schedule``: this is the path of nearly every
        # event).
        session.pending_op = None
        draw = self._draw
        delay = (
            instance.base
            if draw is None
            else instance.base + instance.spread * (2.0 * draw() - 1.0)
        )
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, session.session_id))

    # ------------------------------------------------------------------
    # Blocking, wake-ups, deadlock
    # ------------------------------------------------------------------
    def _park(self, session: _SimSession, blocked: TransactionBlocked) -> None:
        """FIFO-park the session behind the intent holder; no event burns
        while it waits — the holder's release wakes it explicitly."""
        txn = session.current
        assert txn is not None
        self.stats.blocks += 1
        session.blocked_on = blocked.obj
        session.block_start = self._now
        self._wait_queues.setdefault(blocked.obj, deque()).append(session.session_id)
        if self._tracing:
            self._emit(
                "block", txn.tid, session.attempt, blocked.obj, blocked.waiting_for
            )
        cycle = self._find_cycle(session)
        if cycle is not None:
            self._break_deadlock(cycle)

    def _wake(self, obj: str) -> None:
        """Wake the head waiter of ``obj``'s queue, if any."""
        queue = self._wait_queues.get(obj)
        if not queue:
            return
        session = self._sessions[queue.popleft()]
        assert session.blocked_on == obj and session.current is not None
        session.blocked_on = None
        self.stats.wait_time += self._now - session.block_start
        if self._tracing:
            self._emit("unblock", session.current.tid, session.attempt, obj, None)
        self._schedule(session, 0.0)

    def _unpark(self, session: _SimSession) -> None:
        """Remove a deadlock victim from its wait-queue without waking it."""
        if session.blocked_on is None:
            return
        queue = self._wait_queues.get(session.blocked_on)
        if queue is not None:
            try:
                queue.remove(session.session_id)
            except ValueError:
                pass
        self.stats.wait_time += self._now - session.block_start
        session.blocked_on = None

    def _release(self, session: _SimSession) -> None:
        """After commit/abort, wake the head waiter of every freed intent."""
        held = session.held
        if held:
            queues = self._wait_queues
            for obj in held:
                if queues.get(obj):
                    self._wake(obj)
            held.clear()

    def _find_cycle(self, start: _SimSession) -> Optional[List[_SimSession]]:
        """The wait-for cycle through ``start``, or ``None``.

        Edges are read off live engine state (session → blocked object →
        intent holder → holder's session), so there are no stale pointers
        to mishandle — the graph cannot name a transaction that already
        finished.
        """
        path: List[_SimSession] = []
        index: Dict[int, int] = {}
        node: Optional[_SimSession] = start
        while node is not None and node.session_id not in index:
            index[node.session_id] = len(path)
            path.append(node)
            if node.blocked_on is None:
                return None
            holder = self.engine.intent_holder(node.blocked_on)
            if holder is None:
                return None
            holder_sid = self._tid_session.get(holder)
            node = self._sessions[holder_sid] if holder_sid is not None else None
        if node is None:
            return None
        return path[index[node.session_id]:]

    def _break_deadlock(self, cycle: List[_SimSession]) -> None:
        """Abort the cycle member with the fewest attempts (ties to the
        lower session id)."""
        victim = min(cycle, key=lambda s: (s.attempt, s.session_id))
        assert victim.current is not None
        tid = victim.current.tid
        if tid in self.engine.active_tids:
            self.engine.abort(tid)
        if self._tracing:
            self._emit("abort", tid, victim.attempt, None, None)
        self.stats.record_abort("deadlock", self._now)
        self._unpark(victim)
        self._release(victim)
        self._retry(victim)

    def _retry(self, session: _SimSession) -> None:
        # Budget check before counting: a give-up that raises is no retry.
        assert session.current is not None
        if session.attempt + 1 >= self.config.max_attempts:
            raise RuntimeError(
                f"transaction {session.current.tid} exceeded"
                f" {self.config.max_attempts} attempts (livelock?)"
            )
        self.stats.retries += 1
        session.attempt += 1
        self._reset_attempt(session)
        # Linear backoff: repeat offenders wait longer, so under heavy
        # first-committer-wins contention no instance starves against the
        # retry budget.
        backoff = RETRY_BACKOFF * session.attempt
        self._schedule(session, backoff + self._service(session.current))

    def _reset_attempt(self, session: _SimSession) -> None:
        """Ready a fresh attempt of the session's instance (its intents
        were released with the last one)."""
        instance = session.current
        assert instance is not None
        session.body = self._body_factory(instance.program)
        session.pending_op = None
        session.last_result = None
        session.begun = False


def simulate_workload(
    workload: Workload,
    allocation: Allocation,
    config: Optional[SimConfig] = None,
    repeat: int = 1,
) -> Tuple[Trace, SimStats]:
    """Run a static workload: each of its ``repeat`` instances replays its
    transaction's program order (:func:`transaction_coroutine`).

    Nothing is cloned.  With one round the instances are the workload's
    own transactions; above one, each instance is a fresh tid (numbered
    as :func:`replicate_workload` numbers them) over its base
    transaction's operations, at its base transaction's level.  The run
    is the one :func:`replicate_workload`'s cloned instances give, trace
    included.

    Returns:
        The execution trace and the run's :class:`SimStats`.

    Raises:
        ValueError: for a ``repeat`` below 1.
    """
    if repeat == 1:
        simulator = DiscreteEventSimulator(workload, allocation, config)
    else:
        instances, instance_allocation = _instances(workload, allocation, repeat)
        simulator = DiscreteEventSimulator(
            [_Replica(tid, base.operations) for tid, base in instances],
            instance_allocation,
            config,
        )
    trace = simulator.run()
    return trace, simulator.stats
