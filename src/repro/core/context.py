"""Shared, allocation-independent analysis structure for Algorithm 1/2.

Algorithm 2 (and the incremental :class:`~repro.core.incremental.AllocationManager`)
decide optimality by issuing ``O(|T| * levels)`` robustness probes.  The
expensive parts of each probe — the transaction-level conflict index,
the bitset kernel's rows and the per-pair conflicting-operation tables
— depend only on the *workload*, never on the allocation being probed.
:class:`AnalysisContext` builds them once per conflict component,
lazily, and is threaded through :func:`~repro.core.robustness.check_robustness`,
:func:`~repro.core.allocation.optimal_allocation` and friends, so a full
Algorithm 2 run builds each component's structure exactly once.

The conflict index is built on tid bits (bit order = ascending tid): one
``readers`` and one ``writers`` mask per object, and from them one
neighbour mask per transaction, in ``O(total operations)`` big-integer
ORs.  The bitset kernel (:mod:`repro.core.kernel`) evaluates Definition
3.1 directly on these masks; the reference engines' graphs and
candidate lists live in :mod:`repro.core.reference`.

All counters (checks issued, cache hits, index builds) are exposed on
the context's :class:`ContextStats`, replacing ad-hoc per-caller
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from ..observability import current_tracer
from .conflicts import conflicting_pairs
from .operations import Operation
from .workload import Workload, WorkloadError

if TYPE_CHECKING:
    from .sharding import ShardPlan


class ConflictIndex:
    """Transaction-level conflict structure of a workload, on tid bits.

    Bit ``i`` stands for the ``i``-th smallest tid (:attr:`tids`), so
    ascending bit order is ascending tid order — the candidate order of
    every engine.  ``readers[o]`` / ``writers[o]`` hold the transactions
    reading / writing object ``o``; ``nbr[t]`` the transactions
    conflicting with ``t`` (a shared object written on at least one
    side).  Allocation-independent; build accounting lives on
    :attr:`ContextStats.index_builds`.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.transactions = workload.transactions
        self.tids: Tuple[int, ...] = workload.tids
        self.bit: Dict[int, int] = {tid: i for i, tid in enumerate(self.tids)}
        readers: Dict[str, int] = {}
        writers: Dict[str, int] = {}
        for txn in self.transactions:
            flag = 1 << self.bit[txn.tid]
            for obj in txn.read_set:
                readers[obj] = readers.get(obj, 0) | flag
            for obj in txn.write_set:
                writers[obj] = writers.get(obj, 0) | flag
        self.readers = readers
        self.writers = writers
        self.nbr: Dict[int, int] = {}
        for txn in self.transactions:
            mask = 0
            for obj in txn.write_set:
                mask |= readers.get(obj, 0) | writers[obj]
            for obj in txn.read_set:
                mask |= writers.get(obj, 0)
            self.nbr[txn.tid] = mask & ~(1 << self.bit[txn.tid])
        self._neighbours: Dict[int, Set[int]] = {}
        self._scopes: Dict[int, Tuple[int, ...]] = {}

    def scope(self, tid: int) -> Tuple[int, ...]:
        """``tid`` and its conflict neighbours (``nbr[t] | bit(t)``), ascending.

        The split candidates ``T_1`` of a check scoped to ``tid``
        (:func:`~repro.core.robustness.check_robustness_delta`): every
        engine scans them, and every Algorithm 2 probe of ``tid`` reads
        the same tuple, so it is built once per transaction.
        """
        cached = self._scopes.get(tid)
        if cached is None:
            tids = self.tids
            mask = self.nbr[tid] | 1 << self.bit[tid]
            members = []
            while mask:
                low = mask & -mask
                members.append(tids[low.bit_length() - 1])
                mask ^= low
            cached = self._scopes[tid] = tuple(members)
        return cached

    def conflict_neighbours(self, tid: int) -> Set[int]:
        """Transactions having an operation conflicting with one of ``tid``.

        Built on first request by inserting in ascending tid order, which
        gives the set the iteration order a pairwise build would; the
        kernel's connecting chains take their breadth-first starts in
        that order.
        """
        cached = self._neighbours.get(tid)
        if cached is None:
            cached = {other for other in self.scope(tid) if other != tid}
            self._neighbours[tid] = cached
        return cached

    def conflict(self, tid_i: int, tid_j: int) -> bool:
        """Whether the two transactions have conflicting operations."""
        return (self.nbr[tid_i] >> self.bit[tid_j]) & 1 == 1


@dataclass
class ContextStats:
    """Counters exposed by :class:`AnalysisContext`.

    Attributes:
        checks: robustness checks executed through the context — every
            Algorithm 2 probe is one, so this is the probe count, the
            same for every plan that issues the same probes.
        index_builds: conflict indexes built (one per analyzed part of
            the context's plan: per conflict component by default).
        pair_builds: conflicting-operation tables built (per ordered
            pair of a component; read by witness-chain assembly).
        pair_hits: those tables served from the cache.
        kernel_builds: bitset kernels built (at most one per part).
        kernel_row_builds: per-``T_1`` kernel rows built.
        kernel_row_hits: kernel row requests served from the cache.
        plan_builds: shard plans built from scratch (full union-find over
            the whole workload); the dynamic plan keeps this at zero
            after the initial build.
        plan_merges: component merges performed by
            :meth:`~repro.core.sharding.DynamicShardPlan.add` (``k``
            previously separate components fused count ``k - 1``).
        plan_splits: components split off by
            :meth:`~repro.core.sharding.DynamicShardPlan.remove` after a
            localized connectivity recheck (``k`` pieces count ``k - 1``).
        plan_reuse: removals that skipped the connectivity recheck
            entirely — a departing singleton, or a transaction with at
            most one conflict neighbour (a leaf cannot disconnect the
            rest).
    """

    checks: int = 0
    index_builds: int = 0
    pair_builds: int = 0
    pair_hits: int = 0
    kernel_builds: int = 0
    kernel_row_builds: int = 0
    kernel_row_hits: int = 0
    plan_builds: int = 0
    plan_merges: int = 0
    plan_splits: int = 0
    plan_reuse: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and benchmarks)."""
        return {
            "checks": self.checks,
            "index_builds": self.index_builds,
            "pair_builds": self.pair_builds,
            "pair_hits": self.pair_hits,
            "kernel_builds": self.kernel_builds,
            "kernel_row_builds": self.kernel_row_builds,
            "kernel_row_hits": self.kernel_row_hits,
            "plan_builds": self.plan_builds,
            "plan_merges": self.plan_merges,
            "plan_splits": self.plan_splits,
            "plan_reuse": self.plan_reuse,
        }


class _Core:
    """The allocation-independent structure of one component's workload.

    Holds what a robustness probe reads and never changes: the conflict
    index, the bitset kernel and the conflicting-pair tables.  An
    :class:`AnalysisContext` builds one per part of its plan, on first
    use; the :class:`~repro.core.incremental.AllocationManager` carries
    the cores of untouched components across mutations.  Structural
    counters (index, kernel, row and pair builds) land on
    ``stats``; checks are counted by the context running them.
    """

    __slots__ = ("workload", "index", "stats", "_kernel", "_pairs")

    def __init__(self, workload: Workload, stats: ContextStats):
        self.workload = workload
        with current_tracer().span("context.index_build", transactions=len(workload)):
            self.index = ConflictIndex(workload)
        stats.index_builds += 1
        self.stats = stats
        self._kernel = None  # BitKernel, built lazily by kernel()
        self._pairs: Dict[Tuple[int, int], Tuple[Tuple[Operation, Operation], ...]] = {}

    def kernel(self):
        """The (lazily built) :class:`~repro.core.kernel.BitKernel`.

        Built on the first scan and shared by every later check of the
        component.
        """
        if self._kernel is None:
            from .kernel import BitKernel

            with current_tracer().span(
                "context.kernel_build", transactions=len(self.workload)
            ):
                self._kernel = BitKernel(self.workload, self.index, self.stats)
            self.stats.kernel_builds += 1
        return self._kernel

    def conflicting_pairs(
        self, tid_b: int, tid_a: int
    ) -> Tuple[Tuple[Operation, Operation], ...]:
        """Cached ``(b, a)`` conflicting-operation pairs from ``tid_b`` into ``tid_a``."""
        key = (tid_b, tid_a)
        cached = self._pairs.get(key)
        if cached is not None:
            self.stats.pair_hits += 1
            return cached
        pairs = tuple(
            conflicting_pairs(self.workload[tid_b], self.workload[tid_a])
        )
        self._pairs[key] = pairs
        self.stats.pair_builds += 1
        return pairs


class AnalysisContext:
    """The allocation-independent analysis structure of one workload.

    Build once per workload, pass to every robustness/allocation call
    probing that workload:

        >>> from repro.core.allocation import optimal_allocation
        >>> from repro.core.workload import workload
        >>> wl = workload("R1[x] W1[y]", "R2[y] W2[x]")
        >>> ctx = AnalysisContext(wl)
        >>> str(optimal_allocation(wl, context=ctx))
        'T1:SSI, T2:SSI'
        >>> ctx.stats.checks, ctx.stats.index_builds  # probes, one component
        (4, 1)

    The context owns a component plan (:attr:`plan`, a
    :class:`~repro.core.sharding.ShardPlan`): every chain of Definition
    3.1 links conflicting transactions, so verdicts, witnesses and the
    optimum decompose exactly over conflict components, and every entry
    point analyzes part by part.  Each part gets its own core (conflict
    index, kernel, caches), built on first use; all cores count into the
    one :attr:`stats`.  ``plan`` defaults to the workload's conflict
    components.  Any plan whose parts are unions of components gives the
    same results; ``ShardPlan.from_components((workload.tids,))``
    analyzes the workload as one unit.

    The context is *read-only with respect to the workload*: it must not
    be reused after the workload changes (the entry points raise
    :class:`~repro.core.workload.WorkloadError` on a mismatch).
    """

    def __init__(
        self,
        workload: Workload,
        stats: Optional[ContextStats] = None,
        plan: Optional[ShardPlan] = None,
    ):
        self.workload = workload
        self.stats = stats if stats is not None else ContextStats()
        if plan is None:
            from .sharding import ShardPlan

            with current_tracer().span("shard.plan", transactions=len(workload)):
                plan = ShardPlan(workload)
        self.plan = plan
        self._workloads: Dict[int, Workload] = {}
        self._cores: Dict[int, _Core] = {}

    # -- validation ----------------------------------------------------
    def matches(self, workload: Workload) -> bool:
        """Whether the context was built for (an equal copy of) ``workload``."""
        return self.workload is workload or self.workload == workload

    def ensure(self, workload: Workload) -> None:
        """Raise :class:`WorkloadError` unless :meth:`matches` holds."""
        if not self.matches(workload):
            raise WorkloadError(
                "AnalysisContext was built for a different workload;"
                " build a fresh context after the workload changes"
            )

    # -- per-part structure --------------------------------------------
    def _part_workload(self, index: int) -> Workload:
        """The (cached) sub-workload of part ``index``.

        A one-part plan's sub-workload is the workload itself, so its
        core runs on the caller's object, with no copy.
        """
        cached = self._workloads.get(index)
        if cached is None:
            if len(self.plan) == 1:
                cached = self.workload
            else:
                cached = self.workload.restricted_to(self.plan.shards[index])
            self._workloads[index] = cached
        return cached

    def _core(self, index: int) -> _Core:
        """The core of part ``index``, built on first use."""
        cached = self._cores.get(index)
        if cached is None:
            cached = _Core(self._part_workload(index), self.stats)
            self._cores[index] = cached
        return cached

    def _adopt(self, index: int, core: _Core) -> None:
        """Install a core built for part ``index`` by an earlier context.

        The incremental manager carries the cores of untouched components
        across mutations; the caller owns the invariant that
        ``core.workload`` equals the part's sub-workload.  Adopting it
        also adopts that sub-workload object.
        """
        self._workloads[index] = core.workload
        self._cores[index] = core

    # -- check accounting ----------------------------------------------
    def record_check(self) -> None:
        """Count one robustness check (a full check or one probe)."""
        self.stats.checks += 1
        current_tracer().count("robustness.checks")


def _resolve(workload: Workload, context: Optional[AnalysisContext]) -> AnalysisContext:
    """The caller's context, checked against ``workload``, or a fresh one."""
    if context is None:
        return AnalysisContext(workload)
    context.ensure(workload)
    return context
