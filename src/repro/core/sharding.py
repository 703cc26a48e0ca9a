"""Conflict components: the partition the incremental manager analyzes by.

Robustness under Definition 3.1 decomposes over the connected
components of the *conflict graph* (transactions as nodes, an edge when
two transactions have conflicting operations): every quadruple of a
counterexample chain links two conflicting transactions, so a chain —
and hence a multiversion split schedule — can never cross components.
Consequently

* a workload is robust against an allocation iff every component's
  sub-workload is robust against the allocation restricted to it;
* the first witness of Algorithm 1's scan is the witness with the
  smallest split-transaction id across components;
* the optimal allocation (Algorithm 2) is the per-component optimum,
  composed — lowering a transaction's level only ever creates or
  destroys witnesses inside its own component.

The library analyzes a workload as one unit and keeps each kernel row
inside its ``T_1``'s component
(:meth:`~repro.core.context.ConflictIndex.component`).  The
:class:`~repro.core.incremental.AllocationManager` keeps one analysis
context per component, so a mutation re-analyzes only the components it
touched.  This module finds the components:
:func:`conflict_components` partitions a workload with a
:class:`UnionFind` (object-grouped, ``O(total operations)``), and a
:class:`DynamicShardPlan` keeps the partition up to date under churn.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .context import ContextStats
from .workload import Workload, WorkloadError

__all__ = [
    "DynamicShardPlan",
    "conflict_components",
]


class UnionFind:
    """Union-find over integer keys with path compression.

    Partitions transactions into conflict components, both from scratch
    (:func:`conflict_components`) and locally when a removal may split a
    component (:meth:`DynamicShardPlan.remove`).  Roots are stable under
    the union order used here: ``union(a, b)`` parents ``b``'s root under
    ``a``'s, so iterating keys in a deterministic order yields
    deterministic components.
    """

    __slots__ = ("_parent",)

    def __init__(self, keys):
        self._parent: Dict[int, int] = {key: key for key in keys}

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def conflict_components(workload: Workload) -> Tuple[Tuple[int, ...], ...]:
    """Connected components of the conflict graph, without building it.

    Two transactions conflict iff they access a common object and at
    least one of them writes it.  Grouping by object therefore suffices:
    for every object with at least one writer, all its writers and
    readers belong to one component (readers are linked *through* a
    writer; readers of an object nobody writes do not conflict).  One
    union per access — ``O(total operations)`` with a
    :class:`UnionFind`.

    Components are ordered by their smallest transaction id; members are
    in ascending id order.

    Examples:
        >>> from repro.core.workload import workload
        >>> wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[p] W3[p]")
        >>> conflict_components(wl)
        ((1, 2), (3,))
    """
    tids = workload.tids
    uf = UnionFind(tids)
    readers: Dict[str, List[int]] = {}
    writers: Dict[str, List[int]] = {}
    for txn in workload:
        for obj in txn.write_set:
            writers.setdefault(obj, []).append(txn.tid)
        for obj in txn.read_set:
            readers.setdefault(obj, []).append(txn.tid)
    for obj, wtids in writers.items():
        anchor = wtids[0]
        for tid in wtids[1:]:
            uf.union(anchor, tid)
        for tid in readers.get(obj, ()):
            uf.union(anchor, tid)
    groups: Dict[int, List[int]] = {}
    for tid in tids:  # ascending: components ordered by smallest member
        groups.setdefault(uf.find(tid), []).append(tid)
    return tuple(tuple(group) for group in groups.values())


class DynamicShardPlan:
    """A mutable component partition maintained incrementally under churn.

    The streaming counterpart of :func:`conflict_components`: instead of
    re-running the full union-find over
    *all* transactions on every mutation, the plan keeps a per-object →
    accessor index and updates only the components reachable from the
    mutated transaction's objects:

    * :meth:`add` unions the components its objects touch — amortized
      ``O(ops of txn)``, independent of ``|T|``;
    * :meth:`remove` unindexes the transaction and re-checks
      connectivity *only over the departed component's members* (lazy
      split detection).  A departing singleton, or a transaction with at
      most one conflict neighbour (a leaf cannot disconnect the rest),
      short-circuits to ``O(1)``/``O(ops)`` with no recheck at all.

    Equivalence is the contract: after any mutation sequence,
    :attr:`shards` is identical — order, members, everything — to
    ``conflict_components(workload)`` over the same transactions
    (pinned by ``tests/properties/test_plan_maintenance.py``).  The
    canonical view is cached per component, so untouched components'
    member tuples are never rebuilt.

    ``stats`` is a (rebindable) :class:`~repro.core.context.ContextStats`
    receiving the ``plan_builds`` / ``plan_merges`` / ``plan_splits`` /
    ``plan_reuse`` counters; the
    :class:`~repro.core.incremental.AllocationManager` points it at each
    mutation's fresh stats object so plan work is attributed per
    mutation.
    """

    __slots__ = (
        "stats",
        "_read_sets",
        "_write_sets",
        "_readers",
        "_writers",
        "_comp_of",
        "_members",
        "_next_comp",
        "_min_tid",
        "_member_tuples",
        "_shards_cache",
    )

    def __init__(
        self,
        workload: Optional[Workload] = None,
        stats: Optional[ContextStats] = None,
    ):
        self.stats = stats if stats is not None else ContextStats()
        self._read_sets: Dict[int, frozenset] = {}
        self._write_sets: Dict[int, frozenset] = {}
        self._readers: Dict[str, set] = {}
        self._writers: Dict[str, set] = {}
        self._comp_of: Dict[int, int] = {}
        self._members: Dict[int, set] = {}
        self._next_comp = 0
        self._min_tid: Dict[int, int] = {}
        self._member_tuples: Dict[int, Tuple[int, ...]] = {}
        self._shards_cache: Optional[Tuple[Tuple[int, ...], ...]] = None
        if workload is not None and len(workload):
            self._install(workload, conflict_components(workload))
            self.stats.plan_builds += 1

    # -- internal construction -----------------------------------------
    def _install(self, workload: Workload, components) -> None:
        for txn in workload:
            self._index_transaction(txn)
        for component in components:
            comp = self._next_comp
            self._next_comp += 1
            members = set(component)
            self._members[comp] = members
            self._min_tid[comp] = min(members)
            for tid in members:
                self._comp_of[tid] = comp

    def _index_transaction(self, txn) -> None:
        tid = txn.tid
        self._read_sets[tid] = txn.read_set
        self._write_sets[tid] = txn.write_set
        for obj in txn.write_set:
            self._writers.setdefault(obj, set()).add(tid)
        for obj in txn.read_set:
            self._readers.setdefault(obj, set()).add(tid)

    def _invalidate(self, *comps: int) -> None:
        self._shards_cache = None
        for comp in comps:
            self._member_tuples.pop(comp, None)

    # -- mutations -----------------------------------------------------
    def add(self, txn) -> Tuple[int, ...]:
        """Admit ``txn``, merging every component it conflicts into.

        Returns the resulting component's members (ascending).  Cost is
        ``O(ops of txn)`` plus the size of the merged components —
        never a function of the workload size.
        """
        tid = txn.tid
        if tid in self._comp_of:
            raise WorkloadError(f"transaction {tid} already in the shard plan")
        neighbours: set = set()
        for obj in txn.write_set:
            writers = self._writers.get(obj)
            if writers:
                # All of the object's accessors already share a component.
                neighbours.add(self._comp_of[next(iter(writers))])
            else:
                # First writer of the object: its readers, previously
                # unlinked through it, may sit in several components.
                for other in self._readers.get(obj, ()):
                    neighbours.add(self._comp_of[other])
        for obj in txn.read_set:
            writers = self._writers.get(obj)
            if writers:
                neighbours.add(self._comp_of[next(iter(writers))])
        self._index_transaction(txn)
        if not neighbours:
            comp = self._next_comp
            self._next_comp += 1
            self._members[comp] = {tid}
            self._min_tid[comp] = tid
            self._invalidate()
        else:
            comp = max(neighbours, key=lambda c: len(self._members[c]))
            low = self._min_tid[comp]
            for other in neighbours:
                if other == comp:
                    continue
                absorbed = self._members.pop(other)
                low = min(low, self._min_tid.pop(other))
                for member in absorbed:
                    self._comp_of[member] = comp
                self._members[comp].update(absorbed)
            self._members[comp].add(tid)
            self._min_tid[comp] = min(low, tid)
            self._comp_of[tid] = comp
            self.stats.plan_merges += len(neighbours) - 1
            self._invalidate(comp, *neighbours)
            return self._member_tuple(comp)
        self._comp_of[tid] = comp
        return (tid,)

    def remove(self, tid: int) -> Tuple[int, ...]:
        """Retire ``tid``; returns the departed component's survivors.

        The survivors (ascending, possibly empty) are exactly the
        transactions whose component assignment may have changed — the
        manager re-analyzes their components and no others.  Connectivity is
        re-checked only over those survivors, and only when ``tid`` had
        two or more distinct conflict neighbours (a singleton or leaf
        departure cannot disconnect anything — ``plan_reuse``).
        """
        comp = self._comp_of.pop(tid, None)
        if comp is None:
            raise WorkloadError(f"no transaction {tid} in the shard plan")
        read_set = self._read_sets.pop(tid)
        write_set = self._write_sets.pop(tid)
        for obj in write_set:
            accessors = self._writers[obj]
            accessors.discard(tid)
            if not accessors:
                del self._writers[obj]
        for obj in read_set:
            accessors = self._readers[obj]
            accessors.discard(tid)
            if not accessors:
                del self._readers[obj]
        members = self._members[comp]
        members.discard(tid)
        self._invalidate(comp)
        if not members:
            del self._members[comp]
            del self._min_tid[comp]
            self.stats.plan_reuse += 1
            return ()
        survivors = tuple(sorted(members))
        if self._conflict_degree_at_most_one(read_set, write_set):
            # A leaf's departure leaves the rest connected: no recheck.
            self._min_tid[comp] = survivors[0]
            self.stats.plan_reuse += 1
            return survivors
        pieces = self._split_pieces(members)
        if len(pieces) == 1:
            self._min_tid[comp] = survivors[0]
            return survivors
        del self._members[comp]
        del self._min_tid[comp]
        for piece in pieces:
            fresh = self._next_comp
            self._next_comp += 1
            self._members[fresh] = set(piece)
            self._min_tid[fresh] = piece[0]
            self._member_tuples[fresh] = piece
            for member in piece:
                self._comp_of[member] = fresh
        self.stats.plan_splits += len(pieces) - 1
        return survivors

    def _conflict_degree_at_most_one(self, read_set, write_set) -> bool:
        """Whether the departed accesses conflicted with at most one tid."""
        neighbour: Optional[int] = None
        for obj in write_set:
            for other in self._writers.get(obj, ()):
                if neighbour is None:
                    neighbour = other
                elif other != neighbour:
                    return False
            for other in self._readers.get(obj, ()):
                if neighbour is None:
                    neighbour = other
                elif other != neighbour:
                    return False
        for obj in read_set:
            for other in self._writers.get(obj, ()):
                if neighbour is None:
                    neighbour = other
                elif other != neighbour:
                    return False
        return True

    def _split_pieces(self, members: set) -> List[Tuple[int, ...]]:
        """Connected pieces of the surviving members, localized.

        A union-find over *only* the departed component's survivors and
        the objects they touch — every accessor of an object written
        inside the component is itself inside it, so no other
        component's transactions can be dragged in.
        """
        uf = UnionFind(members)
        seen: set = set()
        for member in members:
            for obj in self._write_sets[member]:
                seen.add(obj)
            for obj in self._read_sets[member]:
                seen.add(obj)
        for obj in seen:
            writers = self._writers.get(obj)
            if not writers:
                continue
            anchor = next(iter(writers))
            for other in writers:
                uf.union(anchor, other)
            for other in self._readers.get(obj, ()):
                uf.union(anchor, other)
        groups: Dict[int, List[int]] = {}
        for member in sorted(members):
            groups.setdefault(uf.find(member), []).append(member)
        return [tuple(group) for group in groups.values()]

    # -- canonical (conflict_components-equivalent) view ---------------
    def _member_tuple(self, comp: int) -> Tuple[int, ...]:
        cached = self._member_tuples.get(comp)
        if cached is None:
            cached = tuple(sorted(self._members[comp]))
            self._member_tuples[comp] = cached
        return cached

    @property
    def shards(self) -> Tuple[Tuple[int, ...], ...]:
        """The components in :func:`conflict_components` order.

        Ordered by smallest member, members ascending; cached until the
        next mutation, and each untouched component's member tuple is
        cached across mutations.
        """
        if self._shards_cache is None:
            order = sorted(self._members, key=self._min_tid.__getitem__)
            self._shards_cache = tuple(
                self._member_tuple(comp) for comp in order
            )
        return self._shards_cache

    def __len__(self) -> int:
        return len(self._members)
