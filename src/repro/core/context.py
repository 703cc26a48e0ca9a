"""Shared, allocation-independent analysis structure for Algorithm 1/2.

Algorithm 2 (and the incremental :class:`~repro.core.incremental.AllocationManager`)
decide optimality by issuing ``O(|T| * levels)`` robustness probes.  The
expensive parts of each probe — the transaction-level conflict index,
the bitset kernel's rows, the candidate-partner lists and the per-pair
conflicting-operation tables — depend only on the *workload*, never on
the allocation being probed.  :class:`AnalysisContext` builds them once
per conflict component, lazily, and is threaded through
:func:`~repro.core.robustness.check_robustness`,
:func:`~repro.core.allocation.optimal_allocation` and friends, so a full
Algorithm 2 run builds each component's structure exactly once.

The conflict index is built on tid bits (bit order = ascending tid): one
``readers`` and one ``writers`` mask per object, and from them one
neighbour mask per transaction, in ``O(total operations)`` big-integer
ORs.  The bitset kernel (:mod:`repro.core.kernel`) evaluates Definition
3.1 directly on these masks.

All counters (checks issued, cache hits, index builds) are exposed on
the context's :class:`ContextStats`, replacing ad-hoc per-caller
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import networkx as nx

from ..observability import current_tracer
from .conflicts import conflicting_pairs, transactions_conflict
from .operations import Operation
from .transactions import Transaction
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


def mixed_iso_graph(t1: Transaction, others) -> nx.Graph:
    """The mixed-iso-graph of ``T_1`` over ``others`` (Section 3).

    Nodes are the transactions of ``others`` having no operation conflicting
    with an operation of ``t1``; transactions with conflicting operations
    are connected by an edge.  Conflict existence is symmetric, so an
    undirected graph captures the paper's reachability exactly.
    """
    nodes = [t for t in others if not transactions_conflict(t1, t)]
    graph = nx.Graph()
    graph.add_nodes_from(t.tid for t in nodes)
    for i, ti in enumerate(nodes):
        for tj in nodes[i + 1 :]:
            if transactions_conflict(ti, tj):
                graph.add_edge(ti.tid, tj.tid)
    return graph


class ReachabilityOracle:
    """Reachability through the mixed-iso-graph of a fixed ``T_1``.

    Precomputes the connected components of ``mixed-iso-graph(T_1, ...)``
    and, for every candidate ``T_2``/``T_m`` (which conflict with ``T_1``
    and are therefore not graph nodes), the components they are attached
    to.  ``reachable(T_2, T_m)`` then reduces to equality, a direct
    conflict, or a shared attached component.  Allocation-independent.
    """

    def __init__(self, index: ConflictIndex, t1: Transaction):
        self.index = index
        self.t1 = t1
        others = [t for t in index.transactions if t.tid != t1.tid]
        self.graph = mixed_iso_graph(t1, others)
        self._component_of: Dict[int, int] = {}
        self._components: List[Set[int]] = []
        for comp_id, nodes in enumerate(nx.connected_components(self.graph)):
            self._components.append(set(nodes))
            for tid in nodes:
                self._component_of[tid] = comp_id

    def attached_components(self, tid: int):
        """Components containing a transaction conflicting with ``tid``."""
        attached = {
            self._component_of[other]
            for other in self.index.conflict_neighbours(tid)
            if other in self._component_of
        }
        return frozenset(attached)

    def reachable(self, tid_2: int, tid_m: int) -> bool:
        """The ``reachable(T_2, T_m, T_1)`` predicate of Algorithm 1."""
        if tid_2 == tid_m:
            return True
        if self.index.conflict(tid_2, tid_m):
            return True
        return bool(self.attached_components(tid_2) & self.attached_components(tid_m))

    def connecting_path(self, tid_2: int, tid_m: int) -> Optional[List[int]]:
        """Intermediate transactions ``T_3 ... T_{m-1}`` linking the pair.

        Returns an empty list for a direct conflict (or ``tid_2 == tid_m``)
        and ``None`` when the pair is not reachable.
        """
        if tid_2 == tid_m or self.index.conflict(tid_2, tid_m):
            return []
        shared = self.attached_components(tid_2) & self.attached_components(tid_m)
        if not shared:
            return None
        comp_id = min(shared)
        component = self._components[comp_id]
        starts = [
            t for t in self.index.conflict_neighbours(tid_2) if t in component
        ]
        ends = {
            t for t in self.index.conflict_neighbours(tid_m) if t in component
        }
        # Multi-source BFS inside the component from T_2's neighbours to
        # any of T_m's neighbours.
        parents: Dict[int, Optional[int]] = {s: None for s in starts}
        frontier = list(starts)
        goal: Optional[int] = next((s for s in starts if s in ends), None)
        while frontier and goal is None:
            next_frontier: List[int] = []
            for node in frontier:
                for neighbour in self.graph.neighbors(node):
                    if neighbour in parents:
                        continue
                    parents[neighbour] = node
                    if neighbour in ends:
                        goal = neighbour
                        break
                    next_frontier.append(neighbour)
                if goal is not None:
                    break
            frontier = next_frontier
        if goal is None:  # pragma: no cover - shared component guarantees a path
            return None
        path = [goal]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path


@dataclass
class ContextStats:
    """Counters exposed by :class:`AnalysisContext`.

    Attributes:
        checks: robustness checks executed through the context — every
            Algorithm 2 probe is one, so this is the probe count, the
            same for every plan that issues the same probes.
        index_builds: conflict indexes built (one per analyzed part of
            the context's plan: per conflict component by default).
        oracle_builds: reachability oracles built (at most one per
            ``T_1``) — only by the ``components`` and ``paper`` engines;
            the default ``bitset`` engine builds its witness chains from
            the kernel rows and never builds an oracle.
        oracle_hits: oracle requests served from the cache.
        pair_builds: conflicting-operation tables built (per ordered
            pair of a component; read by the reference engines and by
            witness-chain assembly).
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
    oracle_builds: int = 0
    oracle_hits: int = 0
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
            "oracle_builds": self.oracle_builds,
            "oracle_hits": self.oracle_hits,
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
    index, the bitset kernel, the reachability oracles, the candidate
    partner lists and the conflicting-pair tables.  An
    :class:`AnalysisContext` builds one per part of its plan, on first
    use; the :class:`~repro.core.incremental.AllocationManager` carries
    the cores of untouched components across mutations.  Structural
    counters (index, kernel, row, oracle and pair builds) land on
    ``stats``; checks are counted by the context running them.
    """

    __slots__ = (
        "workload", "index", "stats", "_oracles", "_kernel", "_candidates", "_pairs"
    )

    def __init__(self, workload: Workload, stats: ContextStats):
        self.workload = workload
        with current_tracer().span("context.index_build", transactions=len(workload)):
            self.index = ConflictIndex(workload)
        stats.index_builds += 1
        self.stats = stats
        self._oracles: Dict[int, ReachabilityOracle] = {}
        self._kernel = None  # BitKernel, built lazily by kernel()
        self._candidates: Dict[Tuple[int, str], Tuple[Transaction, ...]] = {}
        self._pairs: Dict[Tuple[int, int], Tuple[Tuple[Operation, Operation], ...]] = {}

    def oracle(self, t1: Transaction) -> ReachabilityOracle:
        """The (cached) reachability oracle for split transaction ``t1``."""
        cached = self._oracles.get(t1.tid)
        if cached is not None:
            self.stats.oracle_hits += 1
            return cached
        with current_tracer().span("context.oracle_build", t1=t1.tid):
            oracle = ReachabilityOracle(self.index, t1)
        self._oracles[t1.tid] = oracle
        self.stats.oracle_builds += 1
        return oracle

    def kernel(self):
        """The (lazily built) :class:`~repro.core.kernel.BitKernel`.

        Built on the first ``method="bitset"`` scan and shared by every
        later check of the component.
        """
        if self._kernel is None:
            from .kernel import BitKernel

            with current_tracer().span(
                "context.kernel_build", transactions=len(self.workload)
            ):
                self._kernel = BitKernel(self.workload, self.index, self.stats)
            self.stats.kernel_builds += 1
        return self._kernel

    def candidates(self, t1: Transaction, method: str) -> Tuple[Transaction, ...]:
        """Candidate ``T_2``/``T_m`` partners for ``t1`` under ``method``.

        The paper iterates over all of ``T \\ {T_1}``; ``components``
        restricts to transactions conflicting with ``T_1``, which is sound
        because ``b_1``/``a_2`` and ``b_m``/``a_1`` require such conflicts
        (the ``bitset`` kernel takes the same set as its row's ``C``).
        """
        key = (t1.tid, method)
        cached = self._candidates.get(key)
        if cached is not None:
            return cached
        if method == "paper":
            result = tuple(t for t in self.index.transactions if t.tid != t1.tid)
        else:
            result = tuple(
                self.workload[tid]
                for tid in sorted(self.index.conflict_neighbours(t1.tid))
            )
        self._candidates[key] = result
        return result

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
