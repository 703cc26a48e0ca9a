"""Reference engines for Algorithms 1 and 2: test oracles only.

Every production path runs the bitset kernel of :mod:`repro.core.kernel`;
this module keeps two independent engines to check it against.
``"components"`` answers reachability through the connected components
of each ``T_1``'s mixed-iso-graph (:class:`ReachabilityOracle`), sound
because ``T_2`` and ``T_m`` conflict with ``T_1`` and so are never graph
nodes.  ``"paper"`` is Algorithm 1's verbatim loop structure, with the
transitive closure recomputed per triple.  Both give the production
witness specs, survey order, optimum and check count, and share no scan,
refinement loop or conflict index with it: conflicts come from pairwise
:func:`~repro.core.conflicts.transactions_conflict` (:func:`conflict_sets`),
as :func:`mixed_iso_graph` builds its edges.  Each ``T_1`` is scanned
inside its conflict component.  No production module imports this one.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx

from .conflicts import (
    ConflictQuadruple, conflicting_pairs, rw_conflicting, transactions_conflict,
)
from .isolation import Allocation, IsolationLevel, POSTGRES_LEVELS
from .operations import Operation
from .robustness import _validate
from .split_schedule import SplitScheduleSpec
from .transactions import Transaction
from .workload import Workload, WorkloadError

__all__ = [
    "ENGINES", "ConflictSets", "ReachabilityOracle", "conflict_sets",
    "first_witness_spec", "mixed_iso_graph", "optimal_allocation", "survey",
]

#: The reference engine names.
ENGINES = ("components", "paper")


class ConflictSets:
    """One conflict component: its transactions, ascending (``tids``
    their ids), and each member's conflict neighbours.  Every set was
    filled in ascending tid order, so connecting chains take their
    breadth-first starts in a pairwise build's order."""

    def __init__(self, transactions: List[Transaction], neighbours: Dict[int, Set[int]]):
        self.transactions = transactions
        self.tids = tuple(t.tid for t in transactions)
        self._neighbours = neighbours

    def conflict_neighbours(self, tid: int) -> Set[int]:
        return self._neighbours[tid]

    def conflict(self, tid_i: int, tid_j: int) -> bool:
        return tid_j in self._neighbours[tid_i]

    def scope(self, tid: int) -> List[int]:
        """``tid`` and its conflict neighbours, ascending."""
        return sorted(self._neighbours[tid] | {tid})


def conflict_sets(workload: Workload) -> Dict[int, ConflictSets]:
    """Each transaction's :class:`ConflictSets`, one per conflict component.

    Every pair is tested with :func:`transactions_conflict`, in ascending
    tid order, and a flood fill over the neighbour sets collects the
    components.
    """
    txns = workload.transactions
    neighbours: Dict[int, Set[int]] = {t.tid: set() for t in txns}
    for i, ti in enumerate(txns):
        for tj in txns[i + 1 :]:
            if transactions_conflict(ti, tj):
                neighbours[ti.tid].add(tj.tid)
                neighbours[tj.tid].add(ti.tid)
    sets_of: Dict[int, ConflictSets] = {}
    for tid in workload.tids:
        if tid in sets_of:
            continue
        members, stack = {tid}, [tid]
        while stack:
            for other in neighbours[stack.pop()]:
                if other not in members:
                    members.add(other)
                    stack.append(other)
        sets = ConflictSets([workload[t] for t in sorted(members)], neighbours)
        sets_of.update(dict.fromkeys(members, sets))
    return sets_of


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

    Precomputes the connected components of ``mixed-iso-graph(T_1, ...)``;
    ``reachable(T_2, T_m)`` then reduces to equality, a direct conflict,
    or a component both are attached to (one holding a transaction
    conflicting with each).  Allocation-independent.
    """

    def __init__(self, index: ConflictSets, t1: Transaction):
        self.index = index
        others = [t for t in index.transactions if t.tid != t1.tid]
        self.graph = mixed_iso_graph(t1, others)
        self._components: List[Set[int]] = list(nx.connected_components(self.graph))
        self._component_of = {
            tid: i for i, nodes in enumerate(self._components) for tid in nodes
        }

    def attached_components(self, tid: int):
        """Components containing a transaction conflicting with ``tid``."""
        return frozenset(
            self._component_of[other]
            for other in self.index.conflict_neighbours(tid)
            if other in self._component_of
        )

    def reachable(self, tid_2: int, tid_m: int) -> bool:
        """The ``reachable(T_2, T_m, T_1)`` predicate of Algorithm 1."""
        if tid_2 == tid_m or self.index.conflict(tid_2, tid_m):
            return True
        return bool(self.attached_components(tid_2) & self.attached_components(tid_m))

    def connecting_path(self, tid_2: int, tid_m: int) -> Optional[List[int]]:
        """Intermediate transactions ``T_3 ... T_{m-1}`` linking the pair:
        ``[]`` for a direct conflict or ``tid_2 == tid_m``, ``None`` when
        unreachable, else a breadth-first search inside the lowest shared
        component from ``T_2``'s neighbours to any of ``T_m``'s."""
        if tid_2 == tid_m or self.index.conflict(tid_2, tid_m):
            return []
        shared = self.attached_components(tid_2) & self.attached_components(tid_m)
        if not shared:
            return None
        component = self._components[min(shared)]
        neighbours = self.index.conflict_neighbours
        starts = [t for t in neighbours(tid_2) if t in component]
        ends = {t for t in neighbours(tid_m) if t in component}
        parents: Dict[int, Optional[int]] = {s: None for s in starts}
        queue = deque(starts)
        goal: Optional[int] = next((s for s in starts if s in ends), None)
        while queue and goal is None:
            node = queue.popleft()
            for neighbour in self.graph.neighbors(node):
                if neighbour not in parents:
                    parents[neighbour] = node
                    if neighbour in ends:
                        goal = neighbour
                        break
                    queue.append(neighbour)
        if goal is None:  # pragma: no cover - shared component guarantees a path
            return None
        path = [goal]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path


def _ww_conflict_free(
    b1: Operation, t1: Transaction, t2: Transaction, tm: Transaction, level1
) -> bool:
    """Conditions (2)/(3) of Definition 3.1 for a candidate split point."""
    split_pos = t1.position(b1)
    blocked = t2.write_set | tm.write_set
    for c1 in t1.body:
        if not c1.is_write:
            continue
        if t1.position(c1) > split_pos and level1 is IsolationLevel.RC:
            continue
        if c1.obj in blocked:
            return False
    return True


def _triple_passes_ssi_conditions(
    allocation: Allocation, t1: Transaction, t2: Transaction, tm: Transaction
) -> bool:
    """Conditions (6)-(8) of Definition 3.1 on the triple ``(T_1, T_2, T_m)``."""
    ssi = IsolationLevel.SSI
    level1, level2, levelm = allocation[t1.tid], allocation[t2.tid], allocation[tm.tid]
    if level1 is ssi and level2 is ssi and levelm is ssi:
        return False
    if level1 is ssi and level2 is ssi and (t1.write_set & t2.read_set):
        return False
    if level1 is ssi and levelm is ssi and (t1.read_set & tm.write_set):
        return False
    return True


def _paper_reachable(
    index: ConflictSets, t1: Transaction, t2: Transaction, tm: Transaction
) -> bool:
    """The verbatim ``reachable(T_2, T_m, T_1)`` of Algorithm 1."""
    if t2.tid == tm.tid or index.conflict(t2.tid, tm.tid):
        return True
    others = [t for t in index.transactions if t.tid not in (t1.tid, t2.tid, tm.tid)]
    graph = mixed_iso_graph(t1, others)
    closure: Dict[int, Set[int]] = {
        node: nx.node_connected_component(graph, node) for node in graph.nodes
    }
    for t3 in graph.nodes:
        if not index.conflict(t2.tid, t3):
            continue
        for tm_minus_1 in closure[t3]:
            if index.conflict(tm_minus_1, tm.tid):
                return True
    return False


class _Reference:
    """One workload under one engine: the conflict sets of each component,
    and each ``T_1``'s oracle on first use."""

    def __init__(self, workload: Workload, engine: str):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; use one of {ENGINES}")
        self.workload = workload
        self.paper = engine == "paper"
        self.index_of = conflict_sets(workload)
        self._oracles: Dict[int, ReachabilityOracle] = {}

    def oracle(self, t1: Transaction) -> ReachabilityOracle:
        """The (cached) reachability oracle of split transaction ``t1``."""
        cached = self._oracles.get(t1.tid)
        if cached is None:
            cached = ReachabilityOracle(self.index_of[t1.tid], t1)
            self._oracles[t1.tid] = cached
        return cached

    def candidates(self, t1: Transaction) -> List[Transaction]:
        """Candidate ``T_2``/``T_m`` partners of ``t1`` in its component:
        all of them for ``paper``, those conflicting with ``t1`` (which
        conditions (4) and (5) require) for ``components``."""
        index = self.index_of[t1.tid]
        if self.paper:
            return [t for t in index.transactions if t.tid != t1.tid]
        return [self.workload[tid] for tid in sorted(index.conflict_neighbours(t1.tid))]

    def _search_operations(
        self, allocation: Allocation, t1: Transaction, t2: Transaction, tm: Transaction
    ) -> Optional[tuple]:
        """The inner loop of Algorithm 1: find ``(b_1, a_2, b_m, a_1)`` if any."""
        level1 = allocation[t1.tid]
        rc_split = level1 is IsolationLevel.RC
        for b1 in t1.body:
            if not b1.is_read or b1.obj not in t2.write_set:
                continue  # condition (4): b_1 rw-conflicting with some a_2
            if not _ww_conflict_free(b1, t1, t2, tm, level1):
                continue
            for bm, a1 in conflicting_pairs(tm, t1):
                if rw_conflicting(bm, a1) or (rc_split and t1.before(b1, a1)):
                    return (b1, t2.write_op(b1.obj), bm, a1)
        return None

    def _chain(
        self, t1: Transaction, t2: Transaction, tm: Transaction, ops: tuple
    ) -> SplitScheduleSpec:
        """The quadruple chain ``C`` of a discovered counterexample."""
        b1, a2, bm, a1 = ops
        chain = [ConflictQuadruple(t1.tid, b1, a2, t2.tid)]
        if t2.tid != tm.tid:
            path = self.oracle(t1).connecting_path(t2.tid, tm.tid)
            hops = [t2.tid, *path, tm.tid]  # type: ignore[misc]
            for left, right in zip(hops, hops[1:]):
                b, a = next(conflicting_pairs(self.workload[left], self.workload[right]))
                chain.append(ConflictQuadruple(left, b, a, right))
        chain.append(ConflictQuadruple(tm.tid, bm, a1, t1.tid))
        return SplitScheduleSpec(tuple(chain))

    def scan(
        self, allocation: Allocation, tid: int, delta_tid: Optional[int] = None
    ) -> Iterator[SplitScheduleSpec]:
        """One spec per problematic triple with ``T_1 = tid``, in ``(T_2, T_m)``
        order; with a ``delta_tid`` other than ``tid``, only those through it."""
        t1 = self.workload[tid]
        candidates = self.candidates(t1)
        oracle = self.oracle(t1)
        scoped = delta_tid not in (None, tid)
        for t2 in candidates:
            for tm in candidates:
                if scoped and delta_tid not in (t2.tid, tm.tid):
                    continue
                if self.paper:
                    reachable = _paper_reachable(self.index_of[tid], t1, t2, tm)
                else:
                    reachable = oracle.reachable(t2.tid, tm.tid)
                if not reachable or not _triple_passes_ssi_conditions(
                    allocation, t1, t2, tm
                ):
                    continue
                ops = self._search_operations(allocation, t1, t2, tm)
                if ops is not None:
                    yield self._chain(t1, t2, tm, ops)

    def first_witness(
        self, allocation: Allocation, delta_tid: Optional[int] = None
    ) -> Optional[SplitScheduleSpec]:
        """The first witness in ascending ``T_1`` order, or ``None``; with
        ``delta_tid``, ``T_1`` ranges over it and its conflict neighbours."""
        if delta_tid is None:
            t1s: Sequence[int] = self.workload.tids
        else:
            t1s = self.index_of[delta_tid].scope(delta_tid)
        for tid in t1s:
            spec = next(self.scan(allocation, tid, delta_tid), None)
            if spec is not None:
                return spec
        return None


def first_witness_spec(
    workload: Workload,
    allocation: Allocation,
    engine: str,
    delta_tid: Optional[int] = None,
) -> Optional[SplitScheduleSpec]:
    """The first counterexample spec under ``engine``, or ``None`` when robust.

    :func:`repro.core.robustness.first_witness_spec`'s spec, or with
    ``delta_tid`` :func:`repro.core.robustness.check_robustness_delta`'s.
    """
    reference = _Reference(workload, engine)
    _validate(workload, allocation)
    if delta_tid is not None and delta_tid not in workload:
        raise WorkloadError(f"no transaction with id {delta_tid}")
    return reference.first_witness(allocation, delta_tid)


def survey(
    workload: Workload, allocation: Allocation, engine: str
) -> List[SplitScheduleSpec]:
    """One spec per problematic triple, in ``enumerate_counterexamples``' order."""
    reference = _Reference(workload, engine)
    _validate(workload, allocation)
    return [spec for tid in workload.tids for spec in reference.scan(allocation, tid)]


def optimal_allocation(
    workload: Workload,
    levels: Sequence[IsolationLevel] = POSTGRES_LEVELS,
    engine: str = "components",
) -> Tuple[Optional[Allocation], int]:
    """Algorithm 2 under ``engine``: the optimum over ``levels`` and the checks run.

    ``None`` when no allocation over ``levels`` is robust.  Without SSI
    the uniform top is checked first; then each transaction in ascending
    tid order takes the lowest level keeping the allocation robust
    (Theorems 4.3, 5.5), each probe scanning the triples through it.
    Every check counts one, as on ``ContextStats.checks``.
    """
    reference = _Reference(workload, engine)
    ordered = tuple(sorted(set(levels)))
    if not ordered:
        raise ValueError("the class of isolation levels must not be empty")
    current = Allocation.uniform(workload, ordered[-1])
    checks = 0
    if ordered[-1] is not IsolationLevel.SSI:
        checks += 1
        if reference.first_witness(current) is not None:
            return None, checks
    for tid in workload.tids:
        for level in ordered:
            if level >= current[tid]:
                break
            candidate = current.with_level(tid, level)
            checks += 1
            if reference.first_witness(candidate, tid) is None:
                current = candidate
                break
    return current, checks
