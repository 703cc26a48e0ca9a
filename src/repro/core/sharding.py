"""Component sharding: per-connected-component analysis (ROADMAP item 2).

Robustness under Definition 3.1 is decided per connected component of
the *conflict graph* (transactions as nodes, an edge when two
transactions have conflicting operations): every quadruple of a
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

This module hoists that decomposition to the top of the pipeline: a
:class:`ShardPlan` partitions the workload with a :class:`UnionFind`
(object-grouped, ``O(total operations)``), a
:class:`ShardedContext` keeps one
:class:`~repro.core.context.AnalysisContext` per shard (sharing a
single :class:`~repro.core.context.ContextStats`, so ``--stats`` totals
stay truthful), and the ``*_sharded`` entry points compose per-shard
results into global verdicts, witnesses, enumerations and allocations
that are *bit-identical* to analyzing the workload as one unit (asserted
by ``tests/properties/test_shard_equivalence.py``).

This composition is what every public entry point of
:mod:`repro.core.robustness` and :mod:`repro.core.allocation` runs when
``context`` is omitted or a :class:`ShardedContext`; an explicit
:class:`~repro.core.context.AnalysisContext` selects the per-component
core instead, over the whole workload.  A one-shard plan hands the
caller's workload straight to that core (see :func:`_sole_shard`).

The payoff is in the per-component structure: with ``c`` components of
size ``s = |T| / c``, each context's tid masks are ``s`` bits wide and
each per-``T_1`` kernel row (its flood fill and its ``reach`` masks) is
built over ``s`` transactions instead of all of ``|T|``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..observability import current_tracer
from .context import AnalysisContext, ContextStats
from .isolation import Allocation, IsolationLevel
from .workload import Workload, WorkloadError

__all__ = [
    "DynamicShardPlan",
    "ShardPlan",
    "ShardedContext",
    "check_robustness_sharded",
    "conflict_components",
    "enumerate_specs_sharded",
    "first_witness_spec_sharded",
    "optimal_allocation_sharded",
    "refine_allocation_sharded",
    "same_shard",
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


def same_shard(workload: Workload, tids: Iterable[int]) -> bool:
    """Whether all ``tids`` lie in one conflict component of ``workload``.

    Used by :func:`~repro.core.incremental.incremental_counterexample`
    to reject stale witnesses whose chain crosses components after a
    workload mutation reshuffled the conflict graph — such a chain can
    no longer be a split schedule (every quadruple needs a real
    conflict), so the full check must rerun.
    """
    wanted = set(tids)
    if len(wanted) <= 1:
        return True
    for component in conflict_components(workload):
        overlap = wanted & set(component)
        if overlap:
            return overlap == wanted
    return False  # pragma: no cover - tids outside the workload


class ShardPlan:
    """The partition of a workload into conflict-graph components.

    Attributes:
        shards: the components, ordered by smallest transaction id,
            members ascending.
        shard_of: transaction id -> shard index (built lazily — the
            first-witness scan only walks ``shards``, so most plans
            never pay for the mapping).
    """

    __slots__ = ("shards", "_shard_of")

    def __init__(self, workload: Workload):
        self.shards = conflict_components(workload)
        self._shard_of: Optional[Dict[int, int]] = None

    @classmethod
    def from_components(
        cls, shards: Sequence[Tuple[int, ...]]
    ) -> "ShardPlan":
        """A plan over an already-known partition (no union-find).

        The components must be in canonical order — smallest member
        ascending, members ascending — exactly what
        :func:`conflict_components` and
        :meth:`DynamicShardPlan.shards` produce; the caller owns that
        invariant (it is what makes the frozen plan bit-identical to a
        fresh ``ShardPlan(workload)``).
        """
        plan = cls.__new__(cls)
        plan.shards = tuple(tuple(shard) for shard in shards)
        plan._shard_of = None
        return plan

    @property
    def shard_of(self) -> Dict[int, int]:
        """Transaction id -> shard index (built on first access)."""
        if self._shard_of is None:
            self._shard_of = {
                tid: i for i, shard in enumerate(self.shards) for tid in shard
            }
        return self._shard_of

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Shard sizes, in shard order."""
        return tuple(len(shard) for shard in self.shards)

    def __len__(self) -> int:
        return len(self.shards)


class DynamicShardPlan:
    """A mutable component partition maintained incrementally under churn.

    The streaming counterpart of :class:`ShardPlan` (ROADMAP item 2's
    remaining headroom): instead of re-running the full union-find over
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
    :attr:`shards` is identical — order, members, everything — to a
    fresh ``ShardPlan(workload).shards`` over the same transactions
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
        "_index_cache",
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
        self._index_cache: Optional[Dict[int, int]] = None
        if workload is not None and len(workload):
            self._install(workload, conflict_components(workload))
            self.stats.plan_builds += 1

    @classmethod
    def from_partition(
        cls,
        workload: Workload,
        components: Sequence[Sequence[int]],
        stats: Optional[ContextStats] = None,
    ) -> "DynamicShardPlan":
        """Resume a plan from a known partition, skipping the union-find.

        Used by snapshot restore: the persisted partition is validated
        to cover exactly the workload's transaction ids (disjointly) —
        anything else raises :class:`WorkloadError`, and the caller
        falls back to a full build.  Counts one ``plan_reuse``, not a
        ``plan_builds``.
        """
        seen: set = set()
        for component in components:
            for tid in component:
                if tid in seen:
                    raise WorkloadError(
                        f"persisted shard plan repeats transaction {tid}"
                    )
                seen.add(tid)
        if seen != set(workload.tids):
            raise WorkloadError(
                "persisted shard plan does not cover exactly the workload"
            )
        plan = cls(stats=stats)
        plan._install(
            workload, tuple(tuple(sorted(c)) for c in components)
        )
        plan.stats.plan_reuse += 1
        return plan

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
        self._index_cache = None
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
        manager re-analyzes their shards and no others.  Connectivity is
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

    # -- canonical (ShardPlan-equivalent) view -------------------------
    def _member_tuple(self, comp: int) -> Tuple[int, ...]:
        cached = self._member_tuples.get(comp)
        if cached is None:
            cached = tuple(sorted(self._members[comp]))
            self._member_tuples[comp] = cached
        return cached

    def _canonical(self) -> Tuple[Tuple[int, ...], ...]:
        if self._shards_cache is None:
            order = sorted(self._members, key=self._min_tid.__getitem__)
            self._shards_cache = tuple(
                self._member_tuple(comp) for comp in order
            )
            self._index_cache = {comp: i for i, comp in enumerate(order)}
        return self._shards_cache

    @property
    def shards(self) -> Tuple[Tuple[int, ...], ...]:
        """The components in :class:`ShardPlan` canonical order."""
        return self._canonical()

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Shard sizes, in shard order."""
        return tuple(len(shard) for shard in self.shards)

    def __len__(self) -> int:
        return len(self._members)

    def shard_index(self, tid: int) -> int:
        """The canonical shard index owning ``tid`` (O(1) after a freeze)."""
        self._canonical()
        return self._index_cache[self._comp_of[tid]]  # type: ignore[index]

    def freeze(self) -> ShardPlan:
        """An immutable :class:`ShardPlan` snapshot of the current partition.

        Shares the cached member tuples — freezing after a mutation
        costs one ``O(components)`` ordering pass, not a rebuild — and
        is safe to hand to a :class:`ShardedContext` (later plan
        mutations never touch a frozen snapshot).
        """
        return ShardPlan.from_components(self._canonical())


class ShardedContext:
    """Per-shard analysis contexts composing a monolithic-equivalent whole.

    The sharded counterpart of
    :class:`~repro.core.context.AnalysisContext`: one sub-context per
    conflict component, built lazily, all pointing at one shared
    :class:`~repro.core.context.ContextStats` — counters (checks, cache
    hits, index builds) describe the whole analysis no matter how it was
    partitioned.  Like the monolithic context it is read-only with
    respect to the workload and must be rebuilt after mutations
    (:class:`~repro.core.incremental.AllocationManager` rebuilds only
    the touched shard's sub-context and carries the rest over).
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
            with current_tracer().span(
                "shard.plan", transactions=len(workload)
            ):
                plan = ShardPlan(workload)
        self.plan = plan
        self._workloads: Dict[int, Workload] = {}
        self._contexts: Dict[int, AnalysisContext] = {}

    # -- validation ----------------------------------------------------
    def matches(self, workload: Workload) -> bool:
        """Whether the context was built for (an equal copy of) ``workload``."""
        return self.workload is workload or self.workload == workload

    def ensure(self, workload: Workload) -> None:
        """Raise :class:`WorkloadError` unless :meth:`matches` holds."""
        if not self.matches(workload):
            raise WorkloadError(
                "ShardedContext was built for a different workload;"
                " build a fresh context after the workload changes"
            )

    # -- per-shard structure -------------------------------------------
    def shard_workload(self, index: int) -> Workload:
        """The (cached) sub-workload of shard ``index``.

        A one-shard plan's sub-workload is the workload itself — no
        copy — so the per-component core runs on the caller's object.
        """
        cached = self._workloads.get(index)
        if cached is None:
            if len(self.plan) == 1:
                cached = self.workload
            else:
                cached = self.workload.restricted_to(self.plan.shards[index])
            self._workloads[index] = cached
        return cached

    def shard_context(self, index: int) -> AnalysisContext:
        """The (lazily built) analysis context of shard ``index``.

        Sub-contexts share this context's stats object, so their
        conflict-index builds and scan counters land in one place.
        """
        cached = self._contexts.get(index)
        if cached is None:
            cached = AnalysisContext(self.shard_workload(index), stats=self.stats)
            self._contexts[index] = cached
        return cached

    def adopt_workload(self, index: int, workload: Workload) -> None:
        """Install a pre-built sub-workload for shard ``index``.

        The incremental manager carries untouched shards' sub-workloads
        across mutations so that :meth:`adopt_context`'s validation hits
        the identity fast path (``is``) instead of re-comparing
        transaction dicts.  The caller owns the invariant that
        ``workload`` equals ``self.workload.restricted_to(shards[index])``
        — only ever true for components none of whose members were
        touched by the mutation.
        """
        self._workloads[index] = workload

    def adopt_context(self, index: int, context: AnalysisContext) -> None:
        """Install a pre-built sub-context for shard ``index``.

        The incremental manager reuses untouched shards' contexts across
        mutations; the context must have been built for exactly this
        shard's sub-workload.
        """
        context.ensure(self.shard_workload(index))
        self._contexts[index] = context

    def context_of(self, tid: int) -> AnalysisContext:
        """The sub-context of the shard owning transaction ``tid``."""
        return self.shard_context(self.plan.shard_of[tid])

    def shard_allocation(self, allocation: Allocation, index: int) -> Allocation:
        """``allocation`` restricted to shard ``index``."""
        return Allocation(
            {tid: allocation[tid] for tid in self.plan.shards[index]}
        )

    # -- check accounting ----------------------------------------------
    def record_check(self) -> None:
        """Count one *logical* robustness check (not one per shard)."""
        self.stats.checks += 1
        current_tracer().count("robustness.checks")


def _resolve_sharded(
    workload: Workload, context: Optional[ShardedContext]
) -> ShardedContext:
    """The caller's sharded context (validated) or a fresh one."""
    if context is None:
        return ShardedContext(workload)
    if not isinstance(context, ShardedContext):
        raise WorkloadError(
            "the sharded pipeline requires a ShardedContext (or None); got a"
            f" {type(context).__name__} — pass an AnalysisContext to the"
            " public entry point to analyze the workload as one unit"
        )
    context.ensure(workload)
    return context


def _validate(workload: Workload, allocation: Allocation, method: str) -> None:
    if not allocation.covers(workload):
        raise WorkloadError("allocation does not cover the workload")
    if method not in ("bitset", "components", "paper"):
        raise ValueError(f"unknown method {method!r}")


def _first_spec(sctx: ShardedContext, allocation: Allocation, method: str):
    """The earliest-``T_1`` witness across shards, or ``None``.

    Each shard is scanned in ascending ``T_1`` order and stops at its
    first witness; the shard whose witness has the globally smallest
    ``T_1`` id wins — exactly the witness the monolithic ascending-tid
    scan finds first.  Shards whose smallest member exceeds the current
    best ``T_1`` are skipped entirely (they can only contain later
    candidates).
    """
    from .robustness import _scan_t1

    tracer = current_tracer()
    workload = sctx.workload
    best: Optional[Tuple[int, object]] = None  # (t1_tid, spec)
    for index, shard in enumerate(sctx.plan.shards):
        if best is not None and shard[0] > best[0]:
            break  # shards are ordered by smallest tid
        ctx = sctx.shard_context(index)
        with tracer.span("shard.scan", shard=index, size=len(shard)):
            for tid in shard:
                if best is not None and tid > best[0]:
                    break
                with tracer.span("robustness.scan_t1", t1=tid, shard=index):
                    spec = next(
                        _scan_t1(ctx, allocation, workload[tid], method), None
                    )
                if spec is not None:
                    best = (tid, spec)
                    break
    return best


def _sole_shard(sctx: ShardedContext) -> Optional[AnalysisContext]:
    """The only shard's context when the plan has exactly one, else ``None``.

    A single-component workload goes straight to the per-component core,
    over the caller's own workload object (see
    :meth:`ShardedContext.shard_workload`), and pays only the
    ``O(total operations)`` plan on top.
    """
    return sctx.shard_context(0) if len(sctx.plan) == 1 else None


def check_robustness_sharded(
    workload: Workload,
    allocation: Allocation,
    method: str = "bitset",
    context: Optional[ShardedContext] = None,
):
    """Algorithm 1 decided per conflict component, composed globally.

    Returns exactly what the per-component core (an explicit
    :class:`~repro.core.context.AnalysisContext` passed to
    :func:`~repro.core.robustness.check_robustness`) returns — the same
    verdict and, on non-robustness, the same counterexample (the
    smallest-``T_1`` witness, materialized against the *full* workload:
    the split-schedule shape appends the other components' transactions
    serially at the end, where they carry no conditions).
    """
    from .robustness import Counterexample, RobustnessResult, check_robustness
    from .split_schedule import materialize

    sctx = _resolve_sharded(workload, context)
    sole = _sole_shard(sctx)
    if sole is not None:
        return check_robustness(workload, allocation, method=method, context=sole)
    spec = first_witness_spec_sharded(workload, allocation, method, context=sctx)
    if spec is None:
        return RobustnessResult(True)
    schedule = materialize(spec, workload, allocation)
    return RobustnessResult(False, Counterexample(spec, schedule, allocation))


def first_witness_spec_sharded(
    workload: Workload,
    allocation: Allocation,
    method: str = "bitset",
    context: Optional[ShardedContext] = None,
):
    """The first counterexample spec across shards, or ``None`` — no schedule.

    The lean core of :func:`check_robustness_sharded`, mirroring
    :func:`~repro.core.robustness.first_witness_spec`.
    """
    from .robustness import first_witness_spec

    sctx = _resolve_sharded(workload, context)
    sole = _sole_shard(sctx)
    if sole is not None:
        return first_witness_spec(workload, allocation, method, context=sole)
    _validate(workload, allocation, method)
    sctx.record_check()
    tracer = current_tracer()
    with tracer.span(
        "robustness.check",
        transactions=len(workload),
        method=method,
        shards=len(sctx.plan),
    ) as check_span:
        best = _first_spec(sctx, allocation, method)
        check_span.set(robust=best is None)
    return None if best is None else best[1]


def enumerate_specs_sharded(
    workload: Workload,
    allocation: Allocation,
    method: str = "bitset",
    context: Optional[ShardedContext] = None,
) -> Iterator:
    """Every counterexample chain, in the per-component core's order.

    Iterates split candidates in ascending global id, dispatching each
    to its owning shard's sub-context — the yielded sequence is
    element-for-element what
    :func:`~repro.core.robustness.enumerate_counterexamples` yields for
    the workload analyzed as one unit.  Does not count a robustness
    check itself — the caller owns :meth:`ShardedContext.record_check`.
    """
    from .robustness import _enumerate_specs, _scan_t1

    sctx = _resolve_sharded(workload, context)
    sole = _sole_shard(sctx)
    if sole is not None:
        yield from _enumerate_specs(workload, allocation, method, sole)
        return
    _validate(workload, allocation, method)
    tracer = current_tracer()
    for t1 in workload:
        ctx = sctx.context_of(t1.tid)
        shard_index = sctx.plan.shard_of[t1.tid]
        if tracer.recording:
            with tracer.span(
                "robustness.scan_t1", t1=t1.tid, shard=shard_index, survey=True
            ):
                specs = list(_scan_t1(ctx, allocation, t1, method))
        else:
            specs = _scan_t1(ctx, allocation, t1, method)
        yield from specs


def refine_allocation_sharded(
    workload: Workload,
    start: Allocation,
    levels: Sequence[IsolationLevel],
    method: str = "bitset",
    context: Optional[ShardedContext] = None,
    floors: Optional[Dict[int, IsolationLevel]] = None,
) -> Allocation:
    """Algorithm 2's refinement, shard by shard (Propositions 4.1/4.2).

    Lowering a transaction's level only affects witnesses inside its own
    component, so the refinement decomposes: each shard's sub-workload is
    refined against ``start`` restricted to it, and the per-shard optima
    compose into the unique global optimum below ``start`` — the same
    allocation, and the same robustness checks, as refining the workload as one unit (pinned by
    ``tests/properties/test_shard_equivalence.py``).
    """
    from .allocation import _normalized_levels, refine_allocation

    if not start.covers(workload):
        raise WorkloadError("allocation does not cover the workload")
    ordered = _normalized_levels(levels)
    sctx = _resolve_sharded(workload, context)
    sole = _sole_shard(sctx)
    if sole is not None:
        return refine_allocation(
            workload, start, ordered, method=method, context=sole, floors=floors
        )
    tracer = current_tracer()
    pieces: Dict[int, IsolationLevel] = {}
    for index, shard in enumerate(sctx.plan.shards):
        sub_start = sctx.shard_allocation(start, index)
        sub_floors = (
            {tid: floors[tid] for tid in shard if tid in floors}
            if floors
            else None
        )
        with tracer.span("shard.refine", shard=index, size=len(shard)):
            refined = refine_allocation(
                sctx.shard_workload(index),
                sub_start,
                ordered,
                method=method,
                context=sctx.shard_context(index),
                floors=sub_floors,
            )
        for tid in shard:
            pieces[tid] = refined[tid]
    return Allocation({tid: pieces[tid] for tid in workload.tids})


def optimal_allocation_sharded(
    workload: Workload,
    levels: Sequence[IsolationLevel],
    method: str = "bitset",
    context: Optional[ShardedContext] = None,
) -> Optional[Allocation]:
    """Algorithm 2 end to end over shards (Theorem 4.3 / Theorem 5.5).

    Same contract as :func:`~repro.core.allocation.optimal_allocation`:
    ``None`` exactly when the top of ``levels`` is not SSI and the
    uniform top allocation is not robust (some shard has a witness);
    otherwise the composed per-shard optimum — identical to the
    monolithic result by uniqueness (Proposition 4.2).
    """
    from .allocation import _normalized_levels

    ordered = _normalized_levels(levels)
    sctx = _resolve_sharded(workload, context)
    top = ordered[-1]
    start = Allocation.uniform(workload, top)
    with current_tracer().span(
        "allocation.optimal",
        transactions=len(workload),
        levels=[level.name for level in ordered],
        shards=len(sctx.plan),
    ):
        if top is not IsolationLevel.SSI and (
            first_witness_spec_sharded(workload, start, method, context=sctx)
            is not None
        ):
            return None
        return refine_allocation_sharded(
            workload, start, ordered, method=method, context=sctx
        )
