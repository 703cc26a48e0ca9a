"""Shared, allocation-independent analysis structure for Algorithm 1/2.

Algorithm 2 (and the incremental :class:`~repro.core.incremental.AllocationManager`)
decide optimality by issuing ``O(|T| * levels)`` robustness checks.  The
expensive parts of each check — the transaction-level conflict index
(``O(|T|^2)`` pairwise conflict tests), the mixed-iso-graph connected
components of every ``T_1``, the candidate-partner lists and the
per-pair conflicting-operation tables — depend only on the *workload*,
never on the allocation being probed.  :class:`AnalysisContext`
precomputes them once per workload and is threaded through
:func:`~repro.core.robustness.check_robustness`,
:func:`~repro.core.allocation.refine_allocation`,
:func:`~repro.core.allocation.optimal_allocation` and friends, so a full
Algorithm 2 run builds the structure exactly once.

The context additionally carries a *witness cache* for
counterexample-guided warm starts: when lowering a transaction's level
produces a counterexample, the witness chain is recorded, and later
candidate allocations that leave the chain's conditions intact are
rejected without the full Algorithm 1 search.  Definition 3.1 mentions
the allocation only through the levels of ``T_1``, ``T_2`` and ``T_m``,
so each chain is compiled once, on entry, into those three ids and a
27-bit table of the level triples it holds under
(:func:`~repro.core.split_schedule.level_mask`); revalidating it is
three level lookups and one shift.  This is sound by Theorem 3.2: a
chain satisfying all conditions *is* a multiversion split schedule,
hence a proof of non-robustness, for any allocation.

All counters (checks issued, cache hits, index builds) are exposed on
the context, replacing ad-hoc per-caller accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from ..observability import current_tracer
from .conflicts import conflicting_pairs, transactions_conflict
from .isolation import Allocation
from .operations import Operation
from .split_schedule import LEVEL_SHIFTS, SplitScheduleSpec, level_mask
from .transactions import Transaction
from .workload import Workload, WorkloadError


class ConflictIndex:
    """Precomputed transaction-level conflict structure for a workload.

    Allocation-independent: depends only on the read/write sets of the
    transactions.  Build accounting lives on
    :attr:`ContextStats.index_builds` (one per context, merged from
    workers by the parallel engine).
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.transactions = workload.transactions
        self._conflicts: Dict[int, Set[int]] = {t.tid: set() for t in self.transactions}
        txns = self.transactions
        for i, ti in enumerate(txns):
            for tj in txns[i + 1 :]:
                if transactions_conflict(ti, tj):
                    self._conflicts[ti.tid].add(tj.tid)
                    self._conflicts[tj.tid].add(ti.tid)

    def conflict_neighbours(self, tid: int) -> Set[int]:
        """Transactions having an operation conflicting with one of ``tid``."""
        return self._conflicts[tid]

    def conflict(self, tid_i: int, tid_j: int) -> bool:
        """Whether the two transactions have conflicting operations."""
        return tid_j in self._conflicts[tid_i]


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
        checks: robustness checks executed through the context.  Each
            Algorithm 2 probe is a check or a ``witness_hits`` hit, so the
            sum counts probes; ``n_jobs > 1`` issues the same probes
            (Proposition 4.1) but answers more of them from cached chains.
        index_builds: conflict indexes built (1 per context — so one per
            analyzed component under a sharded context).
        oracle_builds: reachability oracles built (at most one per
            ``T_1``) — only by the ``components`` and ``paper`` engines;
            the default ``bitset`` engine builds its witness chains from
            the kernel rows and never builds an oracle.
        oracle_hits: oracle requests served from the cache.
        pair_builds: conflicting-operation tables built (per ordered pair).
        pair_hits: conflicting-operation tables served from the cache.
        witness_hits: candidate allocations rejected by a cached
            counterexample chain's level table instead of a full search.
        kernel_builds: bitset kernels built (at most 1 per context).
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
            rest) — plus plans resumed verbatim from a snapshot.
    """

    checks: int = 0
    index_builds: int = 0
    oracle_builds: int = 0
    oracle_hits: int = 0
    pair_builds: int = 0
    pair_hits: int = 0
    witness_hits: int = 0
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
            "witness_hits": self.witness_hits,
            "kernel_builds": self.kernel_builds,
            "kernel_row_builds": self.kernel_row_builds,
            "kernel_row_hits": self.kernel_row_hits,
            "plan_builds": self.plan_builds,
            "plan_merges": self.plan_merges,
            "plan_splits": self.plan_splits,
            "plan_reuse": self.plan_reuse,
        }

    def merge(self, delta: Dict[str, int]) -> None:
        """Add another stats snapshot (a worker's delta) into these counters.

        The parallel engine collects each worker task's before/after
        counter difference and folds it in here, so ``--stats`` totals
        stay truthful — they report work actually done, wherever it ran.

        Examples:
            >>> stats = ContextStats(checks=2)
            >>> stats.merge({"checks": 3, "oracle_builds": 1})
            >>> stats.checks, stats.oracle_builds
            (5, 1)
        """
        for name, value in delta.items():
            setattr(self, name, getattr(self, name) + value)


class AnalysisContext:
    """Cached allocation-independent analysis structure for one workload.

    Build once per workload, pass to every robustness/allocation call
    probing that workload::

        ctx = AnalysisContext(wl)
        optimum = optimal_allocation(wl, context=ctx)
        ctx.stats.checks        # robustness checks actually executed
        ctx.stats.witness_hits  # candidates rejected by cached witnesses

    The context is *read-only with respect to the workload*: it must not
    be reused after the workload changes (``check_robustness`` raises
    :class:`~repro.core.workload.WorkloadError` on a mismatch).

    ``stats`` optionally injects a shared :class:`ContextStats` object:
    the component-sharded pipeline (:mod:`repro.core.sharding`) builds
    one sub-context per conflict-graph component and points them all at
    the same counters, so ``--stats`` totals describe the whole analysis
    regardless of how it was partitioned.  Each context still counts its
    own conflict-index build into the shared object.
    """

    def __init__(self, workload: Workload, stats: Optional[ContextStats] = None):
        self.workload = workload
        with current_tracer().span("context.index_build", transactions=len(workload)):
            self.index = ConflictIndex(workload)
        if stats is None:
            stats = ContextStats()
        stats.index_builds += 1
        self.stats = stats
        self._oracles: Dict[int, ReachabilityOracle] = {}
        self._kernel = None  # BitKernel, built lazily by kernel()
        self._candidates: Dict[Tuple[int, str], Tuple[Transaction, ...]] = {}
        self._pairs: Dict[Tuple[int, int], Tuple[Tuple[Operation, Operation], ...]] = {}
        # Compiled chains ``(spec, tid_1, tid_2, tid_m, level_mask)``,
        # most recently hit first.
        self._witnesses: List[Tuple[SplitScheduleSpec, int, int, int, int]] = []
        self._witness_set: set = set()  # shadow set: O(1) add_witness dedup

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

    # -- cached structure ----------------------------------------------
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

        Allocation-independent like the rest of the context; built on
        the first ``method="bitset"`` scan and shared by every later
        check of the workload.  Parallel workers call this on their own
        per-process contexts, so kernel rows are rebuilt per worker and
        never pickled.
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

        The paper iterates over all of ``T \\ {T_1}``; the optimized engines
        restrict to transactions conflicting with ``T_1``, which is sound
        because ``b_1``/``a_2`` and ``b_m``/``a_1`` require such conflicts
        (``bitset`` shares the ``components`` candidate list).
        """
        if method == "bitset":
            method = "components"
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

    # -- check accounting ----------------------------------------------
    def record_check(self) -> None:
        """Count one full robustness check executed through the context."""
        self.stats.checks += 1
        current_tracer().count("robustness.checks")

    # -- counterexample-guided warm starts -----------------------------
    def add_witness(self, spec: SplitScheduleSpec) -> None:
        """Remember a counterexample chain for warm-start revalidation.

        The chain is compiled once, here, against this context's
        workload: its ``T_1``/``T_2``/``T_m`` ids and its
        :func:`~repro.core.split_schedule.level_mask`.  Deduplication is
        O(1) via a shadow set (specs are frozen and hashable), not a list
        scan — Algorithm 2 on a contended workload records hundreds of
        chains.
        """
        if spec in self._witness_set:
            return
        self._witness_set.add(spec)
        middle = spec.middle_tids
        self._witnesses.append(
            (
                spec,
                spec.split_tid,
                middle[0],
                middle[-1],
                level_mask(spec, self.workload),
            )
        )

    def spec_applies(self, spec) -> bool:
        """Whether a chain's transactions (and their operations) exist here.

        A cached chain is only meaningful for this context's workload when
        every quadruple references transactions that are present *with the
        operations the chain embeds* — a transaction that was removed, or
        removed and re-added under the same id with different operations,
        invalidates the chain.  :meth:`adopt_witnesses` uses this to prune
        stale chains when witness caches are carried across workload
        mutations (the :class:`~repro.core.incremental.AllocationManager`
        hands witnesses from a retired shard context to its successors).
        """
        for quad in spec.chain:
            if quad.tid_i not in self.workload or quad.tid_j not in self.workload:
                return False
            if quad.b not in self.workload[quad.tid_i]:
                return False
            if quad.a not in self.workload[quad.tid_j]:
                return False
        return True

    def adopt_witnesses(self, specs) -> None:
        """Carry cached chains over from a predecessor context.

        Chains referencing transactions absent from (or changed in) this
        context's workload are dropped — without the pruning, a later
        warm start could reject a candidate allocation with a chain
        naming a transaction that no longer exists.  The survivors are
        compiled against this context's workload (:meth:`add_witness`).
        """
        for spec in specs:
            if self.spec_applies(spec):
                self.add_witness(spec)

    @property
    def witnesses(self) -> Tuple:
        """The recorded counterexample chains, most-recently-hit first.

        New chains are appended; every :meth:`known_witness` hit moves
        the revalidated chain to the front (MRU), so repeated warm-start
        rejections probe the chain that worked last time before any
        stale ones.
        """
        return tuple(entry[0] for entry in self._witnesses)

    def known_witness(
        self, allocation: Allocation, delta_tid: Optional[int] = None
    ) -> Optional[SplitScheduleSpec]:
        """A cached chain proving ``allocation`` non-robust, if one revalidates.

        Tests every cached chain against the *new* allocation, in cache
        order: the levels ``allocation`` gives the chain's ``T_1``,
        ``T_2`` and ``T_m`` pick one bit of its compiled
        :func:`~repro.core.split_schedule.level_mask`, which is set iff
        :func:`~repro.core.split_schedule.condition_failures` would find
        nothing.  Such a chain is a multiversion split schedule for
        ``(workload, allocation)`` and hence (Theorem 3.2) a proof of
        non-robustness — no full Algorithm 1 search is needed.  Returns
        ``None`` when no cached chain applies, in which case the caller
        must fall back to the full search.

        ``delta_tid`` marks ``allocation`` as one step below a robust one
        at that transaction: chains avoiding it read the robust levels,
        where their bit is clear, so they are skipped (same result).

        A hit promotes the chain to the front of the cache (MRU):
        neighbouring candidate allocations tend to be rejected by the
        same chain, so the next lookup usually succeeds on its first
        test instead of re-checking stale chains.
        """
        shift1, shift2, shiftm = LEVEL_SHIFTS
        witnesses = self._witnesses
        for pos, entry in enumerate(witnesses):
            spec, tid1, tid2, tidm, mask = entry
            if delta_tid is not None and delta_tid not in (tid1, tid2, tidm):
                continue
            bit = (
                shift1[allocation[tid1]]
                + shift2[allocation[tid2]]
                + shiftm[allocation[tidm]]
            )
            if (mask >> bit) & 1:
                self.stats.witness_hits += 1
                current_tracer().count("context.witness_hits")
                if pos:
                    del witnesses[pos]
                    witnesses.insert(0, entry)
                return spec
        return None
