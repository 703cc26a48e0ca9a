"""Shared, allocation-independent analysis structure for Algorithm 1/2.

Algorithm 2 (and the incremental :class:`~repro.core.incremental.AllocationManager`)
decide optimality by issuing ``O(|T| * levels)`` robustness probes.  The
expensive parts of each probe — the transaction-level conflict index,
the bitset kernel's rows and the per-pair conflicting-operation tables
— depend only on the *workload*, never on the allocation being probed.
:class:`AnalysisContext` builds them once, lazily, and is threaded
through :func:`~repro.core.robustness.check_robustness`,
:func:`~repro.core.allocation.optimal_allocation` and friends, so a full
Algorithm 2 run builds them exactly once.

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
from typing import Dict, Optional, Set, Tuple

from ..observability import current_tracer
from .conflicts import conflicting_pairs
from .operations import Operation
from .workload import Workload, WorkloadError


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
        self._components: Optional[Dict[int, int]] = None

    def component(self, tid: int) -> int:
        """The tid-bit mask of ``tid``'s conflict component.

        Every chain of Definition 3.1 links conflicting transactions, so
        a witness never leaves the component of its ``T_1``: the kernel
        confines each row's flood fill to this mask.  The first call
        computes every component by one flood fill over :attr:`nbr`.
        """
        components = self._components
        if components is None:
            components = self._components = {}
            tids = self.tids
            bit_nbrs = [self.nbr[tid] for tid in tids]
            remaining = (1 << len(tids)) - 1
            while remaining:
                comp = frontier = remaining & -remaining
                while frontier:
                    reach = 0
                    while frontier:
                        low = frontier & -frontier
                        reach |= bit_nbrs[low.bit_length() - 1]
                        frontier ^= low
                    frontier = reach & ~comp
                    comp |= frontier
                remaining &= ~comp
                members = comp
                while members:
                    low = members & -members
                    components[tids[low.bit_length() - 1]] = comp
                    members ^= low
        return components[tid]

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
            Algorithm 2 probe is one, so this is the probe count.
        index_builds: conflict indexes built (at most one per context,
            on first use; in the incremental manager, at most one per
            re-analyzed component).
        pair_builds: conflicting-operation tables built (per ordered
            pair of transactions; read by witness-chain assembly).
        pair_hits: those tables served from the cache.
        kernel_builds: bitset kernels built (at most one per context).
        kernel_row_builds: per-``T_1`` kernel rows built.
        kernel_row_hits: kernel row requests served from the cache.
    """

    checks: int = 0
    index_builds: int = 0
    pair_builds: int = 0
    pair_hits: int = 0
    kernel_builds: int = 0
    kernel_row_builds: int = 0
    kernel_row_hits: int = 0

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
        }


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
        >>> ctx.stats.checks, ctx.stats.index_builds  # probes, one index
        (4, 1)

    The context analyzes its workload as one unit.  It holds what a
    robustness probe reads and never changes: the conflict index
    (:attr:`index`), the bitset kernel (:meth:`kernel`) and the
    conflicting-pair tables (:meth:`conflicting_pairs`), each built on
    first use and counted on :attr:`stats`.  Kernel rows stay inside
    their ``T_1``'s conflict component
    (:meth:`ConflictIndex.component`): a row's flood fill never visits
    another component.  The
    :class:`~repro.core.incremental.AllocationManager` keeps one context
    per conflict component, to carry the untouched ones across
    mutations.

    The context is *read-only with respect to the workload*: it must not
    be reused after the workload changes (the entry points raise
    :class:`~repro.core.workload.WorkloadError` on a mismatch).
    """

    def __init__(self, workload: Workload, stats: Optional[ContextStats] = None):
        self.workload = workload
        self.stats = stats if stats is not None else ContextStats()
        self._index: Optional[ConflictIndex] = None
        self._kernel = None  # BitKernel, built lazily by kernel()
        self._pairs: Dict[Tuple[int, int], Tuple[Tuple[Operation, Operation], ...]] = {}

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

    # -- structure -----------------------------------------------------
    @property
    def index(self) -> ConflictIndex:
        """The (lazily built) :class:`ConflictIndex` of the workload."""
        if self._index is None:
            with current_tracer().span(
                "context.index_build", transactions=len(self.workload)
            ):
                self._index = ConflictIndex(self.workload)
            self.stats.index_builds += 1
        return self._index

    def kernel(self):
        """The (lazily built) :class:`~repro.core.kernel.BitKernel`.

        Built on the first scan and shared by every later check of the
        workload.
        """
        if self._kernel is None:
            from .kernel import BitKernel

            index = self.index
            with current_tracer().span(
                "context.kernel_build", transactions=len(self.workload)
            ):
                self._kernel = BitKernel(self.workload, index, self.stats)
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
