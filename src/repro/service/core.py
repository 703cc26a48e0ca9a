"""The transport-free heart of ``repro serve``: :class:`ServiceCore`.

A :class:`ServiceCore` owns one
:class:`~repro.core.incremental.AllocationManager` and executes protocol
envelopes (:mod:`repro.service.protocol`) against it — the daemon's
socket layer only frames lines and calls :meth:`ServiceCore.handle`, so
everything here is unit-testable without sockets and reusable in-process
(the churn benchmark drives it directly).

Four service-level behaviours live on top of the manager:

* **One mutation path** — single ``add``/``remove`` envelopes, the
  mutation entries of a ``batch`` and queue retries all run through one
  method: entries are checked against the evolving tid set (a bad entry
  gets the error it would get if sent alone), the valid ones run as ONE
  :meth:`~repro.core.incremental.AllocationManager.apply_batch` (one
  re-analysis per touched conflict component), and the admission policy
  is evaluated once on the outcome.
* **Admission control** — an :class:`AdmissionPolicy` rejects (or
  queues) a transaction whose admission would force a *downgrade storm*:
  more than ``max_promotions`` already-admitted transactions pushed to a
  higher level, or the fraction of transactions still enjoying a level
  below the top dropping under ``floor``.  The rejection envelope
  carries the witness chain proving the old levels cannot survive the
  newcomer, and the rejected transaction is rolled back by the inverse
  batch — the unique optimum (Proposition 4.2) guarantees the roll-back
  restores the exact pre-admission allocation.  The policy judges each
  admission against the state just before it, so under a policy that
  can reject, a batch holding an add runs entry by entry.
* **Warm snapshots** — the ``snapshot``/``restore`` commands wrap
  ``save_state``/``load_state`` in the atomic on-disk envelope of
  :mod:`repro.service.snapshot`.  ``snapshot_every`` auto-snapshots
  after every N mutations: the mutation captures and encodes the state
  and answers, and a :class:`~repro.service.snapshot.SnapshotWriter`
  thread writes the file.  ``snapshot``, ``shutdown``, ``restore`` and
  ``status`` first wait for that write.
* **Metrics** — every answered line, one that is no envelope included,
  is timed into a :class:`~repro.observability.MetricsRegistry`
  (``service.request``, and ``service.<op>`` for a known op); admission
  decisions and per-mutation analysis counters (checks, index builds,
  kernel rows, ...) are folded into its counters, each with its rate
  series fed by the same call, and the ``metrics`` envelope / HTTP
  ``/metrics`` endpoint export the lot through
  :meth:`ServiceCore.metrics_snapshot`.

All command execution is serialized under one lock: the manager is a
single-writer structure, and correctness of the warm state (its
conflict index, kernel rows and levels) depends on mutations being
ordered.
"""

from __future__ import annotations

import time
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.incremental import AllocationManager, BatchMutation, LevelChanges
from ..core.isolation import Allocation, IsolationLevel, POSTGRES_LEVELS
from ..core.split_schedule import SplitScheduleSpec
from ..core.transactions import TransactionError, parse_transaction
from ..core.workload import WorkloadError
from ..observability import (
    EventLog,
    MetricsRegistry,
    RetainedTrace,
    TraceRetainer,
    Tracer,
    WindowedSeries,
    current_tracer,
    new_request_id,
    set_tracer,
)
from .handlers import CommandError, allocation_from_pairs, parse_level
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    ok_response,
    parse_request,
    validate_envelope,
)
from .snapshot import (
    SnapshotError,
    SnapshotWrite,
    SnapshotWriter,
    encode_snapshot,
    read_snapshot,
)

__all__ = ["AdmissionPolicy", "ServiceConfig", "ServiceCore"]

#: Span-nesting depth the flight recorder keeps per request: the
#: ``service.request`` span and the handler's span under it.  Deeper
#: spans are skipped, so the analysis instrumentation stays (almost)
#: free.
REQUEST_TRACE_DEPTH = 2

#: Counter -> its rate series; :meth:`ServiceCore._tally` feeds both.
_RATE_SERIES = {"service.requests": "requests", "service.errors": "errors",
                "context.checks": "checks", "service.rejected": "rejections"}


@dataclass(frozen=True)
class AdmissionPolicy:
    """When to refuse a transaction whose admission degrades the optimum.

    Attributes:
        floor: minimum fraction (0..1) of transactions that must remain
            allocated *strictly below* the top level after admission.
            ``0.0`` (default) never rejects on aggregate cost.
        max_promotions: maximum number of already-admitted transactions
            whose optimal level may rise due to one admission; ``None``
            (default) allows any number.
        mode: ``"reject"`` refuses outright; ``"queue"`` parks the
            refused transaction and retries it after every ``remove``
            (capacity may have freed up).
    """

    floor: float = 0.0
    max_promotions: Optional[int] = None
    mode: str = "reject"

    def __post_init__(self) -> None:
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("admission floor must lie in [0, 1]")
        if self.max_promotions is not None and self.max_promotions < 0:
            raise ValueError("max_promotions must be >= 0 (or None)")
        if self.mode not in ("reject", "queue"):
            raise ValueError('admission mode must be "reject" or "queue"')

    @property
    def active(self) -> bool:
        """Whether this policy can ever refuse an admission."""
        return self.max_promotions is not None or self.floor > 0.0


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``repro serve`` needs to run (CLI flags, distilled).

    Attributes:
        host/port: TCP command endpoint (``port=0`` binds an ephemeral
            port — the daemon reports the actual one).
        socket_path: optional unix stream socket serving the same
            protocol.
        metrics_port: optional HTTP port exporting ``/metrics``.
        port_file: optional path the daemon writes the bound TCP port
            to (for scripts driving an ephemeral-port server).
        snapshot_path: where ``snapshot``/auto-snapshot/shutdown persist
            the warm state; also what a starting daemon resumes from.
        snapshot_every: auto-snapshot after every N successful
            mutations (0 disables), written in the background.
        resume: load ``snapshot_path`` at startup when it exists.
        levels: the class of levels the
            :class:`~repro.core.incremental.AllocationManager` allocates
            over.
        admission: the :class:`AdmissionPolicy`.
        eventlog_path: append structured JSON-lines events here
            (without it, no event is built).
        slo_p99_ms: when set, the ``slo_p99_breached`` gauge flips to 1
            and an ``alert`` event is logged whenever the streaming p99
            of ``service.request`` latency exceeds this many ms.
    """

    host: str = "127.0.0.1"
    port: int = 7311
    socket_path: Optional[str] = None
    metrics_port: Optional[int] = None
    port_file: Optional[str] = None
    snapshot_path: Optional[str] = None
    snapshot_every: int = 0
    resume: bool = True
    levels: Tuple[IsolationLevel, ...] = POSTGRES_LEVELS
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    eventlog_path: Optional[str] = None
    slo_p99_ms: Optional[float] = None


class ServiceCore:
    """Executes protocol envelopes against one allocation manager.

    Examples:
        >>> core = ServiceCore(ServiceConfig())
        >>> core.handle({"op": "add", "transaction": "R[x] W[y]", "tid": 1})["admitted"]
        True
        >>> core.handle({"op": "allocate"})["allocation"]
        {'1': 'RC'}
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.registry = MetricsRegistry()
        self._lock = threading.RLock()
        self._queue: List[Dict[str, Any]] = []  # parked add envelopes
        self._started = time.monotonic()
        self._mutations = 0
        # Mutation counts at the last capture and at the capture of the
        # last snapshot file written.
        self._captured = self._persisted = 0
        self._writer = SnapshotWriter(self._settle_writes)
        self._stopping = False
        self.events = EventLog(config.eventlog_path)
        self.retainer = TraceRetainer()
        # One reusable flight-recorder tracer for all requests (handle()
        # is serialized under the core lock): allocating a tracer per
        # envelope is measurable overhead at churn rates.
        self._request_tracer = Tracer(max_depth=REQUEST_TRACE_DEPTH)
        self._request_id: Optional[str] = None  # the request being answered
        self.series: Dict[str, WindowedSeries] = {
            name: WindowedSeries()
            for name in ("requests", "errors", "mutations", "checks", "rejections")
        }
        self._slo_breached = False
        self._manager = self._initial_manager(config)
        self._top = max(config.levels)
        self._level_names = [level.name for level in sorted(config.levels)]
        self._handlers: Dict[str, Callable[[Mapping[str, Any]], Dict[str, Any]]] = {
            "hello": self._cmd_hello,
            "status": self._cmd_status,
            "add": self._cmd_mutate,
            "remove": self._cmd_mutate,
            "check": self._cmd_check,
            "allocate": self._cmd_allocate,
            "batch": self._cmd_batch,
            "snapshot": self._cmd_snapshot,
            "restore": self._cmd_restore,
            "metrics": self._cmd_metrics,
            "stats": self._cmd_stats,
            "dump-traces": self._cmd_dump_traces,
            "shutdown": self._cmd_shutdown,
        }

    @staticmethod
    def _initial_manager(config: ServiceConfig) -> AllocationManager:
        """A fresh manager, or one resumed warm from the snapshot path.

        A missing snapshot file is a first boot; one that cannot be
        restored raises :class:`SnapshotError`."""
        path = config.snapshot_path
        if config.resume and path and Path(path).exists():
            return _restore_manager(path)
        return AllocationManager(levels=config.levels)

    # ------------------------------------------------------------------
    @property
    def manager(self) -> AllocationManager:
        """The underlying allocation manager (read-mostly; lock mutations)."""
        return self._manager

    @property
    def stopping(self) -> bool:
        """Whether a ``shutdown`` envelope has been executed."""
        return self._stopping

    @property
    def queued_tids(self) -> Tuple[int, ...]:
        """Transaction ids parked by queue-mode admission control."""
        return tuple(sub["tid"] for sub in self._queue)

    # ------------------------------------------------------------------
    def handle_line(self, line: str) -> Dict[str, Any]:
        """Parse one wire line and execute it (the daemon's entry point)."""
        try:
            envelope = parse_request(line)
        except ProtocolError as exc:
            return self.reject(exc)
        return self.handle(envelope)

    def reject(self, exc: ProtocolError) -> Dict[str, Any]:
        """The error response to a line that is no envelope, observed
        like any request; nothing executes."""
        return self._answer(None, {}, exc)

    def handle(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        """Execute one (already parsed) envelope; never raises.

        Every request gets a fresh ``request_id`` (stamped on the
        response, on its spans, and on its events), runs under the core
        lock and the reusable flight-recorder tracer (depth-capped, so
        the deep analysis instrumentation stays cheap), and lands its
        latency in the ``service.<op>`` / ``service.request``
        histograms plus the windowed rate series.
        The finished span tree goes to the :class:`TraceRetainer`
        (``dump-traces``); when the daemon itself traces, the request's
        spans are also copied into the installed tracer.  A ``batch`` is
        one request: its entries run inside it, not through here.
        """
        op = str(envelope.get("op"))
        refused = None
        if op not in self._handlers:
            refused = ProtocolError(f"unknown command {op!r}", code="unknown-op")
        return self._answer(op, envelope, refused)

    def _answer(
        self,
        op: Optional[str],
        envelope: Mapping[str, Any],
        refused: Optional[ProtocolError],
    ) -> Dict[str, Any]:
        """The path of every answered line: run ``envelope`` (traced and
        retained) or answer ``refused``, then observe the response."""
        request_id = new_request_id()
        start = time.perf_counter()
        with self._lock:
            self._request_id = request_id
            if refused is not None:
                response = error_response(envelope, refused.code, str(refused))
            else:
                tracer = self._request_tracer
                tracer.reset()
                previous = set_tracer(tracer)
                try:
                    with tracer.span(
                        "service.request", op=op, request_id=request_id
                    ) as root:
                        response = self._run(self._handlers[op], envelope)
                        root.set(ok=bool(response.get("ok")))
                finally:
                    set_tracer(previous)
                if previous.enabled:
                    previous.absorb(tracer)
            elapsed = time.perf_counter() - start
            response["request_id"] = request_id
            self._observe_request(op, request_id, envelope, response, elapsed)
            if refused is None:
                self.retainer.add(
                    RetainedTrace(
                        request_id=request_id,
                        op=op,
                        ts=time.time(),
                        duration_s=elapsed,
                        ok=bool(response.get("ok")),
                        spans=[record.as_event() for record in tracer.spans],
                    )
                )
        return response

    @staticmethod
    def _run(
        handler: Callable[[Mapping[str, Any]], Dict[str, Any]],
        envelope: Mapping[str, Any],
    ) -> Dict[str, Any]:
        """``handler(envelope)``, with any exception as its error envelope."""
        try:
            return handler(envelope)
        except Exception as exc:  # the daemon must never die mid-line
            return _error_for(envelope, exc)

    def _observe_request(
        self,
        op: Optional[str],
        request_id: str,
        envelope: Mapping[str, Any],
        response: Dict[str, Any],
        elapsed: float,
    ) -> None:
        """Fold one answered line into histograms, series and the event log."""
        ok = bool(response.get("ok"))
        if op in self._handlers:  # never a name the client chose
            self.registry.record(f"service.{op}", elapsed)
        self.registry.record("service.request", elapsed)
        self._tally("service.requests")
        if not ok:
            self._tally("service.errors")
        if self.events.path:
            event: Dict[str, Any] = {
                "op": op,
                "ok": ok,
                "latency_ms": round(elapsed * 1e3, 3),
            }
            checks = response.get("checks")
            if isinstance(checks, int) and not isinstance(checks, bool):
                event["checks"] = checks
            error = response.get("error")
            if isinstance(error, dict) and "code" in error:
                event["error"] = str(error["code"])
            if envelope.get("id") is not None:
                event["envelope_id"] = str(envelope.get("id"))
            self.events.emit("request", request_id=request_id, **event)
        self._check_slo(request_id)

    def _check_slo(self, request_id: str) -> None:
        """Flip the SLO gauge (and log alerts) on p99 threshold crossings."""
        threshold_ms = self.config.slo_p99_ms
        if threshold_ms is None:
            return
        histogram = self.registry.histograms.get("service.request")
        if histogram is None or not histogram.count:
            return
        p99_ms = histogram.quantile(0.99) * 1e3
        breached = p99_ms > threshold_ms
        if breached != self._slo_breached:
            if breached:
                self.registry.incr("service.slo_breaches")
            self.events.emit(
                "alert",
                request_id=request_id,
                breached=breached,
                p99_ms=round(p99_ms, 3),
                slo_p99_ms=threshold_ms,
            )
        self._slo_breached = breached

    # -- helpers -------------------------------------------------------
    # Level names are read as ``_name_``: the public ``name`` goes through
    # the enum descriptor, a Python call per level.
    def _allocation_payload(self, allocation: Allocation) -> Dict[str, str]:
        return {str(tid): level._name_ for tid, level in allocation.items()}

    @staticmethod
    def _changed_payload(changes: LevelChanges) -> Dict[str, str]:
        """The ``changed`` field: each live tid's new level, ascending."""
        return {
            str(tid): after._name_
            for tid, (_before, after) in sorted(changes.items())
            if after is not None
        }

    def _histogram(self, allocation: Allocation) -> Dict[str, int]:
        counts = dict.fromkeys(self._level_names, 0)
        for _tid, level in allocation.items():
            counts[level._name_] = counts.get(level._name_, 0) + 1
        return counts

    def _tally(self, counter: str, n: int = 1) -> None:
        """Count ``n`` events in ``counter`` and in its rate series."""
        self.registry.incr(counter, n)
        self.series[_RATE_SERIES[counter]].record(
            time.monotonic() - self._started, count=n
        )

    def _merge_mutation_stats(self) -> None:
        """Fold the last mutation's analysis counters into the registry.

        Each mutation binds a fresh
        :class:`~repro.core.context.ContextStats`, so the whole dict is
        exactly that mutation's work — cumulative service totals are the
        sum of these deltas.  Its checks also feed the ``checks`` series,
        as does each check a request runs outside a mutation (a
        ``check``, the admission witness, a verified ``restore``).
        """
        for name, value in self._manager.last_stats.as_dict().items():
            if value and name == "checks":
                self._tally("context.checks", value)
            elif value:
                self.registry.incr(f"context.{name}", value)

    def _policy_reasons(self, promotions: List[int]) -> List[str]:
        """Why the active admission policy refuses an outcome (empty:
        admitted); only a non-zero floor reads the whole allocation."""
        policy = self.config.admission
        reasons = []
        if policy.max_promotions is not None and len(promotions) > policy.max_promotions:
            reasons.append(
                f"admission promotes {len(promotions)} transactions"
                f" (> max_promotions={policy.max_promotions})"
            )
        if policy.floor > 0.0:
            allocation = self._manager.allocation
            below = sum(1 for _tid, level in allocation.items() if level < self._top)
            fraction = below / len(allocation) if len(allocation) else 1.0
            if fraction < policy.floor - 1e-12:
                reasons.append(
                    f"fraction below {self._top.name} would drop to {fraction:.3f}"
                    f" (< floor={policy.floor})"
                )
        return reasons

    def _witness_payload(self, changes: LevelChanges) -> Optional[Dict[str, Any]]:
        """The chain proving the pre-admission levels cannot absorb a newcomer.

        Runs while the newcomer is still admitted, with ``changes`` its
        add's report: robustness of the old levels (the current ones
        with ``changes`` undone) extended with the newcomer at the top
        level.  Non-robustness of that candidate is exactly what forces
        existing transactions to rise, and (delta lemma) its witness
        chain involves the newcomer plus currently-admitted transactions
        only — never a retired tid, extending the manager's stale-chain
        pruning guarantee to the service boundary.
        """
        levels = dict(self._manager.allocation.items())
        for tid, (before, _after) in changes.items():
            levels[tid] = self._top if before is None else before
        result = self._manager.check(Allocation(levels))
        self._tally("context.checks")
        if result.robust or result.counterexample is None:
            return None
        return _chain_payload(result.counterexample.spec)

    def _parse_mutation(
        self, sub: Mapping[str, Any], present: Dict[int, bool]
    ) -> BatchMutation:
        """One add/remove envelope as a manager mutation.

        Checked against — and applied to — the evolving tid set:
        the manager's live set overlaid with ``present``, the run's
        adds (``True``) and removes (``False``) so far.  Raises exactly
        what the envelope would raise if it were sent alone.
        """
        validate_envelope(sub)
        op, tid = sub["op"], sub.get("tid")
        if op == "add" and not isinstance(sub["transaction"], str):
            raise ProtocolError('"transaction" must be a string')
        if not isinstance(tid, int) and (tid is not None or op == "remove"):
            raise ProtocolError('"tid" must be an integer')
        live = self._manager.live
        if op == "remove":
            if not present.get(tid, tid in live):
                raise ProtocolError(f"no transaction with id {tid}", code="not-found")
            present[tid] = False
            return ("remove", tid)
        txn = parse_transaction(sub["transaction"], tid=tid)
        if present.get(txn.tid, txn.tid in live):
            raise WorkloadError(f"transaction {txn.tid} already present")
        present[txn.tid] = True
        return ("add", txn)

    def _mutate(
        self, entries: List[Mapping[str, Any]]
    ) -> Tuple[List[Dict[str, Any]], int, int, LevelChanges]:
        """Execute add/remove envelopes: the one path every mutation takes.

        Single ``add``/``remove`` envelopes, the mutation runs of a
        ``batch`` and queue retries all land here.  Every entry is
        checked against the evolving tid set first, so a bad entry gets
        the error it would get if sent alone; the valid ones run as ONE
        :meth:`~repro.core.incremental.AllocationManager.apply_batch`
        and the admission policy is evaluated once on the outcome.  A
        refused add is rolled back by the inverse batch (exact: the
        optimum is unique), reported with its witness chain and, in
        queue mode, parked.  A single mutation answers with the levels
        it changed, queue retries included (a remove retries the
        queue); the entries of a larger batch are marked
        ``"coalesced": true``.

        The policy judges each admission against the state just before
        it, which a coalesced outcome does not show — a later add may
        promote an earlier newcomer, a removal may hide a promotion —
        and removals must retry a non-empty queue.  So when the policy
        can reject and the entries hold an add, or when the queue is
        non-empty, each entry runs alone through this method instead.

        Returns the per-entry responses, the robustness checks spent,
        the number of coalesced mutations and the net level changes.
        """
        changes: LevelChanges = {}
        if len(entries) > 1 and (
            self._queue
            or (
                self.config.admission.active
                and any(sub.get("op") == "add" for sub in entries)
            )
        ):
            results, checks = [], 0
            for sub in entries:
                (response,), spent, _, changed = self._mutate([sub])
                results.append(response)
                checks += spent
                _merge_changes(changes, changed)
            return results, checks, 0, changes
        manager = self._manager
        present: Dict[int, bool] = {}
        results = [{} for _ in entries]
        ops: List[Tuple[int, BatchMutation]] = []
        for slot, sub in enumerate(entries):
            try:
                ops.append((slot, self._parse_mutation(sub, present)))
            except (ProtocolError, TransactionError, WorkloadError) as exc:
                results[slot] = _error_for(sub, exc)
        if not ops:
            return results, 0, 0, changes
        changes = manager.apply_batch([op for _slot, op in ops])
        checks = manager.last_check_count
        adds = [(slot, value) for slot, (kind, value) in ops if kind == "add"]
        # Only a lone add reports its promotions, and it is the only
        # admission an active policy judges here (see above).  An add
        # only raises levels, so its promotions are its other changes.
        lone_add = len(ops) == 1 and len(adds) == 1
        promotions: List[int] = []
        if lone_add:
            newcomer = adds[0][1].tid
            promotions = [tid for tid in changes if tid != newcomer]
        reasons: List[str] = []
        if lone_add and self.config.admission.active:
            reasons = self._policy_reasons(promotions)
        if reasons:
            [(slot, txn)] = adds
            self._merge_mutation_stats()  # the add's work
            witness = self._witness_payload(changes)
            _merge_changes(changes, manager.apply_batch([("remove", txn.tid)]))
            self._merge_mutation_stats()  # the rollback's work
            queued = self.config.admission.mode == "queue"
            self._tally("service.rejected")
            self.events.emit(
                "admission",
                request_id=self._request_id,
                admitted=False,
                tid=txn.tid,
                reason="; ".join(reasons),
                queued=queued,
            )
            if queued:
                self._queue.append(
                    {"op": "add", "transaction": entries[slot]["transaction"], "tid": txn.tid}
                )
                self.registry.incr("service.queued")
            results[slot] = ok_response(
                entries[slot],
                admitted=False,
                tid=txn.tid,
                queued=queued,
                reason="; ".join(reasons),
                promotions=promotions,
                checks=checks,
                witness=witness,
                changed=self._changed_payload(changes),
            )
            return results, checks, 0, changes
        self._merge_mutation_stats()
        self._record_mutation(len(ops))
        self.registry.incr("service.admitted", len(adds))
        retried: List[int] = []
        dropped: List[int] = []
        if len(adds) < len(ops):
            retried, dropped, retry_changes = self._retry_queue()
            _merge_changes(changes, retry_changes)
        coalesced = len(ops) if len(ops) > 1 else 0
        extra: Dict[str, Any] = {"coalesced": True}
        if not coalesced:
            extra = {"checks": checks, "changed": self._changed_payload(changes)}
        level_of = manager.level_of
        for slot, (kind, value) in ops:
            if kind == "remove":
                fields = {"tid": value, "retried": retried, "dropped": dropped}
            else:
                level = level_of.get(value.tid)
                fields = {
                    "admitted": True,
                    "tid": value.tid,
                    "level": level.name if level is not None else None,
                }
                if not coalesced:
                    fields["promotions"] = promotions
            results[slot] = ok_response(entries[slot], **fields, **extra)
        return results, checks, coalesced, changes

    def _record_mutation(self, n: int = 1) -> None:
        self._mutations += n
        self.series["mutations"].record(
            time.monotonic() - self._started, count=n
        )
        path, every = self.config.snapshot_path, self.config.snapshot_every
        if every and path and self._mutations - self._captured >= every:
            with current_tracer().span("service.snapshot", path=path, auto=True):
                self._writer.submit(self._capture(path, auto=True))

    def _capture(self, path: str, auto: bool = False) -> SnapshotWrite:
        """The warm state, encoded for a write to ``path``."""
        self._captured = self._mutations
        return SnapshotWrite(
            path,
            encode_snapshot(self._manager.save_state()),
            mark=self._mutations,
            auto=auto,
            request_id=self._request_id,
        )

    def _write_snapshot(self, path: str) -> int:
        """Persist the warm state at ``path`` once the writes handed to
        the writer are done; returns its size in bytes.

        Raises:
            SnapshotError: naming ``path`` when the file cannot be written.
        """
        with current_tracer().span("service.snapshot", path=path):
            write = self._writer.write(self._capture(path))
            self._settle_writes()
        if write.failure:
            raise SnapshotError(write.failure)
        return write.size

    def _drain_writes(self) -> None:
        """Wait for the snapshot writes handed over and record them."""
        self._writer.drain()
        self._settle_writes()

    def _settle_writes(self) -> None:
        """Record the finished snapshot writes, in write order.

        Runs under the core lock, on the writer thread after each of
        its writes and on a request thread after a drain.  A write that
        failed counts in ``service.snapshot_errors`` and logs a
        ``snapshot`` event with the error; the mutations since its
        capture stay unpersisted.
        """
        with self._lock:
            for write in self._writer.finished():
                self.registry.record("service.snapshot_write", write.seconds)
                if write.failure:
                    self.registry.incr("service.snapshot_errors")
                    self.events.emit(
                        "snapshot",
                        request_id=write.request_id,
                        path=write.path,
                        auto=write.auto,
                        error=write.failure,
                    )
                    continue
                self._persisted = write.mark
                self.registry.incr("service.snapshots")
                if write.auto:
                    self.registry.incr("service.autosnapshots")

    def close(self) -> None:
        """Finish the snapshot writes handed over, join the writer thread
        and close the event log (idempotent)."""
        with self._lock:
            self._drain_writes()
        self._writer.close()
        self.events.close()

    def _retry_queue(self) -> Tuple[List[int], List[int], LevelChanges]:
        """Re-attempt queued admissions; returns ``(admitted, dropped,
        changes)``, ``changes`` the retries' net level changes.

        A queued tid that was reused meanwhile is dropped; one refused
        again is parked again, in its original arrival order.
        """
        admitted: List[int] = []
        dropped: List[int] = []
        still: List[Dict[str, Any]] = []
        changes: LevelChanges = {}
        pending, self._queue = self._queue, []
        for sub in pending:
            (response,), _checks, _, changed = self._mutate([sub])
            _merge_changes(changes, changed)
            if not response["ok"]:
                dropped.append(sub["tid"])
            elif response["admitted"]:
                admitted.append(sub["tid"])
            else:
                still.append(sub)
        self._queue = still
        return admitted, dropped, changes

    # -- command handlers ----------------------------------------------
    def _cmd_hello(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        return ok_response(
            envelope,
            server="repro-serve",
            protocol=PROTOCOL_VERSION,
            levels=list(self._level_names),
            transactions=len(self._manager.live),
        )

    def _cmd_status(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        self._drain_writes()  # so mutations_since_snapshot is settled
        sizes = [len(members) for members in self._manager.components]
        return ok_response(
            envelope,
            transactions=len(self._manager.live),
            shards=len(sizes),
            shard_sizes=sizes,
            queued=list(self.queued_tids),
            mutations=self._mutations,
            mutations_since_snapshot=self._mutations - self._persisted,
            snapshot_path=self.config.snapshot_path,
            uptime_s=time.monotonic() - self._started,
            stopping=self._stopping,
        )

    def _cmd_mutate(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        (response,), _checks, _coalesced, _changes = self._mutate([envelope])
        return response

    def _parse_check_allocation(self, envelope: Mapping[str, Any]) -> Allocation:
        """The ``check`` request's allocation over the live tids: its
        ``allocation`` map, or every tid at ``uniform`` (absent or
        ``null``: SI)."""
        live = self._manager.live
        mapping = envelope.get("allocation")
        uniform = envelope.get("uniform")
        if mapping is not None and uniform is not None:
            raise ProtocolError('use either "allocation" or "uniform", not both')
        if mapping is None:
            if uniform is None:
                uniform = "SI"
            elif not isinstance(uniform, str):
                raise ProtocolError('"uniform" must be a level name')
            return Allocation(dict.fromkeys(live, parse_level(uniform)))
        if not isinstance(mapping, dict):
            raise ProtocolError('"allocation" must be an object of tid -> level')
        return allocation_from_pairs(
            live, ((str(key), str(value)) for key, value in mapping.items())
        )

    def _cmd_check(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        allocation = self._parse_check_allocation(envelope)
        result = self._manager.check(allocation)
        self._tally("context.checks")
        payload: Dict[str, Any] = {"robust": result.robust}
        if not result.robust and result.counterexample is not None:
            from ..analysis.anomalies import classify_counterexample

            payload["counterexample"] = {
                **_chain_payload(result.counterexample.spec),
                "anomaly": str(classify_counterexample(result.counterexample)),
            }
        return ok_response(envelope, **payload)

    def _cmd_allocate(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        allocation = self._manager.allocation
        return ok_response(
            envelope,
            transactions=len(allocation),
            allocation=self._allocation_payload(allocation),
            histogram=self._histogram(allocation),
        )

    def _cmd_batch(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        commands = envelope["commands"]
        if not isinstance(commands, list):
            raise ProtocolError('"commands" must be an array of envelopes')
        results: List[Dict[str, Any]] = []
        checks = coalesced = 0
        run: List[Mapping[str, Any]] = []

        def flush() -> None:
            nonlocal checks, coalesced
            if run:
                responses, spent, merged, _changes = self._mutate(run)
                results.extend(responses)
                checks += spent
                coalesced += merged
                run.clear()

        for sub in commands:
            if isinstance(sub, dict) and sub.get("op") in ("add", "remove"):
                run.append(sub)
                continue
            flush()  # reads must observe the preceding mutations
            if isinstance(sub, dict):
                results.append(self._run(self._batch_command, sub))
            else:
                results.append(
                    error_response(None, "bad-request", "batch entry must be an object")
                )
        flush()
        failed = sum(1 for response in results if not response.get("ok"))
        return ok_response(
            envelope,
            results=results,
            succeeded=len(results) - failed,
            failed=failed,
            checks=checks,
            coalesced=coalesced,
        )

    def _batch_command(self, sub: Mapping[str, Any]) -> Dict[str, Any]:
        """A batch entry other than add/remove, run in place (not a request)."""
        if sub.get("op") in ("batch", "shutdown"):
            raise ProtocolError(f'{sub.get("op")!r} cannot nest in a batch')
        validate_envelope(sub)
        return self._handlers[sub["op"]](sub)

    def _resolve_snapshot_path(self, envelope: Mapping[str, Any]) -> str:
        path = envelope.get("path") or self.config.snapshot_path
        if not path:
            raise ProtocolError(
                "no snapshot path: pass \"path\" or start the server with --snapshot"
            )
        return str(path)

    def _cmd_snapshot(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        path = self._resolve_snapshot_path(envelope)
        size = self._write_snapshot(path)
        return ok_response(
            envelope,
            path=path,
            bytes=size,
            transactions=len(self._manager.live),
        )

    def _cmd_restore(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        path = self._resolve_snapshot_path(envelope)
        verify = envelope.get("verify", False)
        if not isinstance(verify, bool):
            raise ProtocolError('"verify" must be true or false')
        self._drain_writes()
        with current_tracer().span("service.restore", path=path):
            manager = _restore_manager(path)
            if verify:
                robust = manager.check(manager.allocation).robust
                self._tally("context.checks")
                if not robust:
                    raise SnapshotError(
                        f"snapshot {path} cannot be restored: state allocation"
                        " is not robust for the state workload; refusing to"
                        " restore a corrupt snapshot"
                    )
        self._manager = manager
        self._queue.clear()
        self._captured = self._persisted = self._mutations
        self.registry.incr("service.restores")
        return ok_response(
            envelope,
            path=path,
            verified=verify,
            transactions=len(manager.live),
            allocation=self._allocation_payload(manager.allocation),
        )

    def gauges(self) -> Dict[str, float]:
        """Point-in-time service gauges (exported next to the registry).

        Besides the structural gauges (transaction/shard counts, queue
        depth), the windowed series surface here as ``rate_<name>_per_s``
        — rolling per-second rates over the trailing complete windows —
        so ``/metrics`` exports live rates, not just cumulative totals.
        """
        now = time.monotonic() - self._started
        gauges = {
            "transactions": float(len(self._manager.live)),
            "shards": float(len(self._manager.components)),
            "queue_depth": float(len(self._queue)),
            "mutations": float(self._mutations),
            "mutations_since_snapshot": float(self._mutations - self._persisted),
            "uptime_s": now,
            "retained_traces": float(self.retainer.added),
        }
        for name, series in self.series.items():
            gauges[f"rate_{name}_per_s"] = series.rate(now)
        if self.config.slo_p99_ms is not None:
            gauges["slo_p99_breached"] = 1.0 if self._slo_breached else 0.0
        return gauges

    def metrics_snapshot(self) -> Tuple[Dict[str, float], MetricsRegistry]:
        """The gauges and a copy of the registry, read under the core lock.

        The daemon's HTTP thread scrapes while the command thread
        mutates the manager and the registry; reading either unlocked
        can fail mid-iteration or tear a counter from its histogram.
        """
        with self._lock:
            registry = MetricsRegistry()
            registry.merge(self.registry)
            return self.gauges(), registry

    def _cmd_metrics(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        gauges, registry = self.metrics_snapshot()
        return ok_response(envelope, gauges=gauges, **registry.as_dict())

    def _cmd_dump_traces(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        """The flight recorder's retained request span trees.

        Optional ``last`` / ``slowest`` limit how many traces of each
        retention set are returned (both default to everything kept).
        """
        limits = {}
        for key in ("last", "slowest"):
            value = envelope.get(key)
            if value is not None:
                if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                    raise ProtocolError(f'"{key}" must be a non-negative integer')
                limits[key] = value
        return ok_response(envelope, **self.retainer.dump(**limits))

    def _cmd_stats(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        return ok_response(
            envelope,
            last_check_count=self._manager.last_check_count,
            last_stats=self._manager.last_stats.as_dict(),
        )

    def _cmd_shutdown(self, envelope: Mapping[str, Any]) -> Dict[str, Any]:
        self._drain_writes()
        snapshot_path = None
        if self.config.snapshot_path and self._manager.live:
            snapshot_path = self.config.snapshot_path
            self._write_snapshot(snapshot_path)
        self._stopping = True
        return ok_response(
            envelope,
            stopping=True,
            snapshot=snapshot_path,
            transactions=len(self._manager.live),
        )


def _restore_manager(path: str) -> AllocationManager:
    """The manager saved in the snapshot at ``path``; raises
    :class:`SnapshotError` when the file is missing or corrupt, or when
    :meth:`AllocationManager.load_state` rejects its state."""
    state = read_snapshot(path)
    try:
        return AllocationManager.load_state(state)
    except ValueError as exc:
        raise SnapshotError(f"snapshot {path} cannot be restored: {exc}") from None


def _merge_changes(changes: LevelChanges, later: LevelChanges) -> None:
    """Fold ``later`` into ``changes``, so that it holds their net change.

    A tid whose level ends where it started drops out, unless it left
    in between: a tid admitted again counts as changed, as a newcomer
    does.
    """
    for tid, (before, after) in later.items():
        first, middle = changes.get(tid, (before, before))
        if first is after and middle is not None:
            changes.pop(tid, None)
        else:
            changes[tid] = (first, after)


def _chain_payload(spec: SplitScheduleSpec) -> Dict[str, Any]:
    """A witness chain as JSON: split tid, the tids it names, quadruples."""
    return {
        "split_tid": spec.split_tid,
        "tids": sorted(
            {quad.tid_i for quad in spec.chain} | {quad.tid_j for quad in spec.chain}
        ),
        "chain": [
            [quad.tid_i, str(quad.b), str(quad.a), quad.tid_j] for quad in spec.chain
        ],
    }


def _error_for(envelope: Mapping[str, Any], exc: Exception) -> Dict[str, Any]:
    """The error envelope of an exception raised while executing ``envelope``."""
    if isinstance(exc, ProtocolError):
        code = exc.code
    elif isinstance(exc, (CommandError, TransactionError)):
        code = "bad-request"
    elif isinstance(exc, SnapshotError):
        code = "snapshot-error"
    elif isinstance(exc, WorkloadError):
        code = "conflict"
    else:
        return error_response(envelope, "internal", f"{type(exc).__name__}: {exc}")
    return error_response(envelope, code, str(exc))
