"""The multiversion concurrency-control engine.

Implements, operationally, exactly the behaviours the paper's Definitions
2.3/2.4 abstract:

* **RC** — each read observes the latest version committed *at the time of
  the read* (statement snapshot); writes block on uncommitted writers
  (never a dirty write) and proceed once the writer commits (concurrent
  writes are fine).
* **SI / SSI** — each read observes the latest version committed *before
  the transaction's first operation* (transaction snapshot); writes abort
  on the first-committer-wins rule (a concurrent-write would otherwise
  arise).
* **SSI** — additionally, a committing transaction aborts if its commit
  would complete a *dangerous structure* among committed SSI
  transactions.  Unlike production SSI (which tracks conservative
  in/out-conflict flags and accepts false positives), the simulator
  checks the exact condition of the paper, so every committed trace is
  allowed under its allocation per Definition 2.4 and no commit aborts
  without completing a structure — the properties the test suite
  verifies.  The committed SSI peers are indexed by object (who read it,
  who wrote it), so a commit examines only the peers that share an
  object with it, never the whole pool.

Write-write conflicts are mediated by per-object write intents (row
locks): a second writer blocks (:class:`TransactionBlocked`) until the
holder finishes; SI/SSI writers then fail first-committer-wins if the
holder committed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.isolation import IsolationLevel
from ..observability import current_tracer
from .storage import Version, VersionedStore

_RC = IsolationLevel.RC
_SSI = IsolationLevel.SSI


class TransactionAborted(Exception):
    """Raised when an operation forces the transaction to abort.

    Attributes:
        tid: the aborted transaction.
        reason: ``"first-committer-wins"``, ``"dangerous-structure"`` or
            ``"deadlock"``.
    """

    def __init__(self, tid: int, reason: str):
        super().__init__(f"transaction {tid} aborted: {reason}")
        self.tid = tid
        self.reason = reason


class TransactionBlocked(Exception):
    """Raised when a write must wait for another transaction's write intent.

    The simulator parks the writer and retries the same operation once
    ``waiting_for`` commits or aborts.
    """

    def __init__(self, tid: int, waiting_for: int, obj: str):
        super().__init__(f"transaction {tid} blocked on {waiting_for} for {obj!r}")
        self.tid = tid
        self.waiting_for = waiting_for
        self.obj = obj


class _ActiveTransaction:
    """Runtime state of one in-flight transaction.

    One is built per attempt, so its constructor is written out: a
    generated dataclass ``__init__`` would call a factory for each dict.
    """

    __slots__ = ("tid", "level", "first_event", "snapshot_seq", "reads", "writes")

    def __init__(self, tid: int, level: IsolationLevel) -> None:
        self.tid = tid
        self.level = level
        self.first_event: Optional[int] = None
        self.snapshot_seq: Optional[int] = None
        self.reads: Dict[str, int] = {}  # obj -> observed commit_seq
        self.writes: Dict[str, object] = {}


@dataclass(slots=True, eq=False)
class _CommittedTransaction:
    """What the engine remembers about a committed transaction.

    One is built per commit attempt, so it is a plain slotted record (a
    frozen dataclass would set each field through ``object.__setattr__``);
    nothing writes its fields after construction.
    """

    tid: int
    level: IsolationLevel
    first_event: int
    commit_event: int
    commit_seq: int
    snapshot_seq: int
    reads: Dict[str, int]
    write_objects: Tuple[str, ...]


class MVCCEngine:
    """A multiversion engine executing transactions at mixed isolation levels.

    Typical use goes through
    :class:`repro.mvcc.simulator.DiscreteEventSimulator`; direct use::

        engine = MVCCEngine()
        engine.begin(1, IsolationLevel.SI)
        engine.read(1, "x")
        engine.write(1, "x", 42)
        engine.commit(1)
    """

    def __init__(self) -> None:
        self.store = VersionedStore()
        self._active: Dict[int, _ActiveTransaction] = {}
        self._committed: Dict[int, _CommittedTransaction] = {}
        self._intents: Dict[str, int] = {}  # obj -> tid holding the write intent
        self._commit_clock = 0
        self._event_clock = 0
        #: Committed SSI transactions (the dangerous-structure pool), indexed
        #: by object: the peers that read it and the peers that wrote it, each
        #: list in commit order.  A commit-time check looks up only the
        #: objects its candidate touches, never the whole pool.
        self._ssi_peers: Dict[int, _CommittedTransaction] = {}
        self._ssi_readers: Dict[str, List[_CommittedTransaction]] = {}
        self._ssi_writers: Dict[str, List[_CommittedTransaction]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active_tids(self) -> Set[int]:
        """Transactions currently in flight."""
        return set(self._active)

    @property
    def committed(self) -> Dict[int, _CommittedTransaction]:
        """Commit records by transaction id."""
        return dict(self._committed)

    def intent_holder(self, obj: str) -> Optional[int]:
        """The transaction holding the write intent on ``obj``, if any."""
        return self._intents.get(obj)

    def _state(self, tid: int) -> _ActiveTransaction:
        try:
            return self._active[tid]
        except KeyError:
            raise ValueError(f"transaction {tid} is not active") from None

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    # ``read``, ``write`` and ``commit`` run once per simulated operation,
    # so each looks its transaction up, ticks the event clock and starts
    # the transaction in line.  A transaction starts at its first
    # executed operation: its snapshot is taken there, like Postgres
    # taking its snapshot at the first statement, and that event is
    # ``first(T)``.
    def begin(self, tid: int, level: IsolationLevel) -> None:
        """Register a transaction.  The snapshot is taken lazily at its first
        operation, matching ``first(T)`` in the formal model."""
        if tid in self._active:
            raise ValueError(f"transaction {tid} already active")
        if tid in self._committed:
            raise ValueError(f"transaction {tid} already committed")
        self._active[tid] = _ActiveTransaction(tid, level)

    def read(self, tid: int, obj: str) -> Version:
        """Execute ``R[obj]`` and return the observed committed version."""
        try:
            txn = self._active[tid]
        except KeyError:
            raise ValueError(f"transaction {tid} is not active") from None
        self._event_clock += 1
        if txn.first_event is None:
            txn.first_event = self._event_clock
            txn.snapshot_seq = self._commit_clock
        if obj in txn.writes:
            raise ValueError(
                f"transaction {tid} reads {obj!r} after writing it; the model"
                " assumes the one-read-then-one-write normal form"
            )
        if txn.level is _RC:
            version = self.store.latest_committed(obj)  # statement snapshot
        else:
            version = self.store.latest_committed(obj, txn.snapshot_seq)
        txn.reads.setdefault(obj, version.commit_seq)
        return version

    def write(self, tid: int, obj: str, value: object = None) -> None:
        """Execute ``W[obj]``, buffering the new version until commit.

        Raises:
            TransactionBlocked: another active transaction holds the write
                intent on ``obj`` (wait and retry).
            TransactionAborted: first-committer-wins for SI/SSI — a version
                of ``obj`` committed after this transaction's snapshot.
        """
        try:
            txn = self._active[tid]
        except KeyError:
            raise ValueError(f"transaction {tid} is not active") from None
        holder = self._intents.get(obj)
        if holder is not None and holder != tid:
            # A blocked attempt must not start the transaction: the snapshot
            # belongs to ``first(T)``, the first operation that actually
            # executes (and lands in the trace), not to a failed try — else
            # a commit arriving while we wait would be invisible to the
            # snapshot yet precede first(T) in the formal schedule.
            raise TransactionBlocked(tid, holder, obj)
        self._event_clock += 1
        if txn.first_event is None:
            txn.first_event = self._event_clock
            txn.snapshot_seq = self._commit_clock
        if txn.level is not _RC and self.store.has_newer_than(obj, txn.snapshot_seq):
            self._abort(tid)
            raise TransactionAborted(tid, "first-committer-wins")
        self._intents[obj] = tid
        txn.writes[obj] = value

    def commit(self, tid: int) -> int:
        """Commit the transaction, installing its writes; returns the commit seq.

        Raises:
            TransactionAborted: an SSI transaction whose commit would
                complete a dangerous structure among committed SSI
                transactions.
        """
        try:
            txn = self._active[tid]
        except KeyError:
            raise ValueError(f"transaction {tid} is not active") from None
        self._event_clock += 1
        event = self._event_clock
        if txn.first_event is None:
            txn.first_event = event
            txn.snapshot_seq = self._commit_clock
        commit_seq = self._commit_clock + 1
        # The record takes the reads dict over: the transaction leaves
        # ``_active`` below (or in ``_abort``) and never touches it again.
        candidate = _CommittedTransaction(
            tid=tid,
            level=txn.level,
            first_event=txn.first_event,
            commit_event=event,
            commit_seq=commit_seq,
            snapshot_seq=txn.snapshot_seq,
            reads=txn.reads,
            write_objects=tuple(sorted(txn.writes)),
        )
        ssi = txn.level is _SSI
        if ssi and self._completes_dangerous_structure(candidate):
            self._abort(tid)
            raise TransactionAborted(tid, "dangerous-structure")
        self._commit_clock = commit_seq
        for obj, value in txn.writes.items():
            self.store.install(obj, tid, commit_seq, value)
            if self._intents.get(obj) == tid:
                del self._intents[obj]
        self._committed[tid] = candidate
        if ssi:
            self._adopt_ssi_peer(candidate)
        del self._active[tid]
        current_tracer().count("mvcc.commits")
        return commit_seq

    def abort(self, tid: int) -> None:
        """Abort the transaction, discarding buffered writes."""
        self._state(tid)
        self._event_clock += 1
        self._abort(tid)

    def _abort(self, tid: int) -> None:
        txn = self._active.pop(tid)
        for obj in txn.writes:
            if self._intents.get(obj) == tid:
                del self._intents[obj]
        current_tracer().count("mvcc.aborts")

    # ------------------------------------------------------------------
    # SSI dangerous-structure detection
    # ------------------------------------------------------------------
    def _out_peers(self, reader: "_CommittedTransaction") -> List["_CommittedTransaction"]:
        """The pooled peers ``reader`` has a rw-antidependency to.

        They are the writers of an object ``reader`` read that installed a
        version newer than the one it observed.  Each object's writers are
        in commit order, so the walk stops at the first version ``reader``
        could see.
        """
        out = []
        for obj, observed in reader.reads.items():
            for writer in reversed(self._ssi_writers.get(obj, ())):
                if writer.commit_seq <= observed:
                    break
                if writer is not reader:
                    out.append(writer)
        return out

    def _completes_dangerous_structure(self, candidate: "_CommittedTransaction") -> bool:
        """Exact Definition 2.4 check over committed SSI transactions + candidate.

        A dangerous structure ``T1 -> T2 -> T3`` needs rw-antidependencies
        between concurrent transactions with ``C3 <= C1`` and ``C3 < C2``.
        It completes exactly when its last participant commits, so checking
        every SSI commit keeps committed traces structure-free.

        The candidate's commit event is strictly later than every committed
        peer's, so it can never play ``T3`` (which needs ``C3 <= C1`` and
        ``C3 < C2``): only the ``T1`` and ``T2`` roles must be probed, and
        both start from an out-peer of the candidate.  The peers are found
        by object, not by scanning the pool: the candidate's out-peers are
        the writers of the objects it read (:meth:`_out_peers`), its
        in-peers the readers of the objects it writes, since every version
        a peer observed predates the candidate's commit.  A commit thus
        examines only the peers that share an object with it, what lets
        the discrete-event simulator sustain long all-SSI runs.

        Concurrency needs no test of its own.  Every pooled reader reads
        from its snapshot, so a rw-antidependency ``R -> W`` means ``W``
        committed after ``R``'s first operation; when ``W`` also commits
        before ``R``, the two are concurrent.  That covers the candidate
        and its out-peers, and ``T2 -> T3`` with ``C3 < C2``.  A ``T1``
        of the ``T2`` role commits at or after a ``T3``, hence after the
        candidate's first operation, and before the candidate's commit.
        """
        out = self._out_peers(candidate)
        if not out:
            return False
        # Candidate as T2: T1 -> candidate -> T3 with C3 <= C1 (C3 < C2 is
        # automatic — every peer committed before the candidate).
        earliest = min(t3.commit_event for t3 in out)
        for obj in candidate.write_objects:
            for t1 in self._ssi_readers.get(obj, ()):
                if t1.commit_event >= earliest:
                    return True
        # Candidate as T1: candidate -> T2 -> T3 (C3 <= C1 is automatic).
        for t2 in out:
            for t3 in self._out_peers(t2):
                if t3.commit_event < t2.commit_event:
                    return True
        return False

    def _adopt_ssi_peer(self, record: "_CommittedTransaction") -> None:
        """Pool a freshly committed SSI transaction under every object it touched."""
        self._ssi_peers[record.tid] = record
        for obj in record.reads:
            self._ssi_readers.setdefault(obj, []).append(record)
        for obj in record.write_objects:
            self._ssi_writers.setdefault(obj, []).append(record)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Discard engine state no future execution step can observe.

        Long simulations otherwise accumulate unbounded history: version
        chains grow per commit, and every committed SSI transaction stays
        in the dangerous-structure pool forever.  Compaction truncates
        both behind conservative watermarks, leaving behaviour *exactly*
        unchanged:

        * version chains are pruned below the oldest snapshot any active
          transaction holds (a future snapshot is at least as new);
        * a committed SSI peer is retired once it can no longer appear in
          a dangerous structure with any future candidate: its commit
          event must exceed either the first event of some possible future
          candidate (``watermark``) or, one antidependency hop out, the
          first event of a peer that does (``horizon``) — structures have
          three members, so one hop is the full reach.

        ``committed`` introspection only retains the SSI pool afterwards;
        callers wanting full history (the engine tests, a simulation
        with ``compact_every=0``) simply never call ``compact()``.  Returns the
        counts of pruned versions and retired peers.
        """
        active = self._active.values()
        min_snapshot = min(
            (t.snapshot_seq for t in active if t.snapshot_seq is not None),
            default=self._commit_clock,
        )
        pruned_versions = self.store.prune(min_snapshot)
        watermark = min(
            (t.first_event for t in active if t.first_event is not None),
            default=self._event_clock,
        )
        recent = [r for r in self._ssi_peers.values() if r.commit_event > watermark]
        horizon = min([watermark] + [r.first_event for r in recent])
        keep = {
            tid for tid, r in self._ssi_peers.items() if r.commit_event > horizon
        }
        retired = len(self._ssi_peers) - len(keep)
        if retired or len(self._committed) > len(keep):
            self._ssi_peers = {
                tid: r for tid, r in self._ssi_peers.items() if tid in keep
            }
            self._ssi_readers = _kept_peers(self._ssi_readers, keep)
            self._ssi_writers = _kept_peers(self._ssi_writers, keep)
            self._committed = dict(self._ssi_peers)
        return {"pruned_versions": pruned_versions, "retired_peers": retired}


def _kept_peers(
    index: Dict[str, List[_CommittedTransaction]], keep: Set[int]
) -> Dict[str, List[_CommittedTransaction]]:
    """An object index of pooled peers without the retired ones (and
    without the objects no kept peer touches)."""
    kept = {}
    for obj, records in index.items():
        records = [r for r in records if r.tid in keep]
        if records:
            kept[obj] = records
    return kept
