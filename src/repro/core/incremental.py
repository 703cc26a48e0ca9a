"""Incremental robustness checking and allocation maintenance.

Production workloads evolve: programs are added and retired.  Two facts —
both direct consequences of Definition 3.1 — make maintenance much cheaper
than recomputation:

* **Counterexamples survive workload growth.**  A split schedule for a
  subset extends to any superset by appending the extra transactions
  serially at the end (``T_{m+1} ... T_n`` carry no conditions).  So
  removing transactions preserves robustness, and a cached counterexample
  stays valid until one of its chain members is removed.

* **Optima grow pointwise.**  For workloads ``T ⊆ T'``, the optimal
  allocation of ``T'`` restricted to ``T`` dominates the optimal
  allocation of ``T`` (any robust allocation for ``T'`` is, restricted,
  robust for ``T``; the optimum is the least robust allocation).
  Consequently, after adding a transaction ``T`` the candidate
  ``old_optimum ∪ {T -> SSI}`` is robust iff the old levels still
  suffice — and when it is robust, only the new transaction needs
  refining.  When it is not, the refinement restarts from SSI but never
  needs to try levels *below* a transaction's old optimum.

A third fact makes maintenance cheaper still (:mod:`repro.core.sharding`):
robustness and optima decompose over the connected components of the
conflict graph, and a single add/remove only reshapes the components that
touch the mutated transaction.  :class:`AllocationManager` therefore keeps
one :class:`~repro.core.context.AnalysisContext` *per component*, carries
untouched components' contexts (conflict indexes, kernels) *and
sub-workloads* across mutations verbatim, and re-analyzes
only the merged or split components — churn cost tracks the largest
affected component, not ``|T|``.  The partition itself is maintained
incrementally by a :class:`~repro.core.sharding.DynamicShardPlan` (no
per-mutation union-find over the whole workload), and every mutation —
a single add or remove is a batch of one — goes through
:meth:`AllocationManager.apply_batch`, which coalesces a batch into
**one** floors-aware re-analysis per touched component.  A re-analyzed
component gets a fresh context: nothing a probe reads survives from a
retired one, so no state can name a transaction that is gone.

Every mutation binds one fresh :class:`~repro.core.context.ContextStats`
to the components it actually (re)builds, so
:attr:`AllocationManager.last_check_count` reports the exact number of
robustness checks the mutation executed (it reads the counter — no
estimates), and untouched components contribute exactly zero.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..observability import current_tracer
from .allocation import refine_allocation
from .context import AnalysisContext, ContextStats
from .isolation import Allocation, IsolationLevel, POSTGRES_LEVELS
from .robustness import Counterexample, _witness_exists, check_robustness
from .sharding import DynamicShardPlan, ShardedContext, same_shard
from .transactions import Transaction
from .workload import Workload, WorkloadError, parse_workload as _parse_workload_text

#: One batch entry: ``("add", Transaction)`` or ``("remove", tid)``.
BatchMutation = Tuple[str, Union[Transaction, int]]


class AllocationManager:
    """Maintains the optimal robust allocation of an evolving workload.

    Every check and refinement runs the default ``bitset`` engine; the
    reference engines stay on the library functions
    (:func:`~repro.core.robustness.check_robustness` and
    :func:`~repro.core.allocation.optimal_allocation` take ``method=``).

    Examples:
        >>> from repro.core.transactions import parse_transaction
        >>> manager = AllocationManager()
        >>> manager.add(parse_transaction("R1[x] W1[y]"))
        Allocation({T1:RC})
        >>> manager.add(parse_transaction("R2[y] W2[x]"))
        Allocation({T1:SSI, T2:SSI})
        >>> manager.remove(1)
        Allocation({T2:RC})
    """

    def __init__(self, levels: Sequence[IsolationLevel] = POSTGRES_LEVELS):
        self._levels = tuple(sorted(set(levels)))
        if not self._levels:
            raise ValueError("the class of isolation levels must not be empty")
        if self._levels[-1] is not IsolationLevel.SSI:
            raise ValueError(
                "AllocationManager requires SSI in the class (an optimum must"
                " always exist); use optimal_allocation() for {RC, SI}"
            )
        self._transactions: Dict[int, Transaction] = {}
        self._allocation = Allocation({})
        self._sctx: Optional[ShardedContext] = None
        self._shard_contexts: Dict[Tuple[int, ...], AnalysisContext] = {}
        self._shard_workloads: Dict[Tuple[int, ...], Workload] = {}
        self._last_stats = ContextStats()
        self._last_check_count = 0
        self._plan = DynamicShardPlan(stats=self._last_stats)
        self._plan_totals: Dict[str, int] = {
            "plan_builds": 0,
            "plan_merges": 0,
            "plan_splits": 0,
            "plan_reuse": 0,
        }

    # ------------------------------------------------------------------
    @property
    def workload(self) -> Workload:
        """The current workload."""
        return Workload(self._transactions.values())

    @property
    def allocation(self) -> Allocation:
        """The current optimal robust allocation."""
        return self._allocation

    @property
    def context(self) -> Optional[ShardedContext]:
        """The sharded analysis context of the last mutation.

        ``None`` before the first mutation.  Usable wherever a context is
        accepted — the core entry points route a
        :class:`~repro.core.sharding.ShardedContext` through the sharded
        pipeline automatically.
        """
        return self._sctx

    @property
    def last_check_count(self) -> int:
        """Robustness checks actually executed by the last mutation.

        An exact count read off the mutation's stats — every check of a
        mutation runs through the freshly (re)built shard contexts, which
        share one counter, so no estimates.  Later :meth:`check` probes
        reuse the contexts (and show up in :attr:`last_stats`) but do not
        disturb this snapshot.
        """
        return self._last_check_count

    @property
    def last_stats(self) -> ContextStats:
        """Full counters of the last mutation's analysis work.

        Bound only to the shard contexts the mutation actually rebuilt —
        untouched components carry their old contexts and contribute
        nothing, so ``index_builds`` counts exactly the components the
        mutation re-analyzed.
        """
        return self._last_stats

    @property
    def plan_stats(self) -> Dict[str, int]:
        """Cumulative shard-plan maintenance counters over the manager's life.

        Per-mutation values live on :attr:`last_stats`
        (``plan_merges``, ``plan_splits``, ``plan_reuse``,
        ``plan_builds``); this dict is their running total — the
        service's ``/metrics`` gauges.
        """
        return dict(self._plan_totals)

    # ------------------------------------------------------------------
    def _rebuild_context(
        self, stats: ContextStats, dirty: Set[int]
    ) -> Tuple[
        Workload,
        ShardedContext,
        Dict[Tuple[int, ...], AnalysisContext],
        Dict[Tuple[int, ...], Workload],
        List[int],
    ]:
        """A sharded context over the maintained plan, reusing what stands.

        ``dirty`` is the set of transaction ids whose component
        assignment (or content) the mutation may have changed: newly
        added transactions plus the survivors of every removal-hit
        component.  A shard disjoint from ``dirty`` carries its
        sub-workload *and* context over by identity — O(1) per shard,
        no dict compares, no conflict-index rebuilds — and so does a
        dirty shard whose members and operations ended up unchanged (a
        batch removed and re-added the same transaction), which keeps
        its optimum.  Every other shard comes back in ``fresh`` with a
        new context.
        """
        workload = Workload(self._transactions.values())
        sctx = ShardedContext(workload, stats=stats, plan=self._plan.freeze())
        new_map: Dict[Tuple[int, ...], AnalysisContext] = {}
        new_workloads: Dict[Tuple[int, ...], Workload] = {}
        fresh: List[int] = []
        for index, shard in enumerate(sctx.plan.shards):
            carried_wl = self._shard_workloads.get(shard)
            ctx = self._shard_contexts.get(shard)
            if (
                ctx is not None
                and ctx.workload is carried_wl
                and (
                    dirty.isdisjoint(shard)
                    or carried_wl == sctx.shard_workload(index)
                )
            ):
                sctx.adopt_workload(index, carried_wl)
                sctx.adopt_context(index, ctx)
            else:
                fresh.append(index)
                ctx = sctx.shard_context(index)
            new_map[shard] = ctx
            new_workloads[shard] = sctx.shard_workload(index)
        return workload, sctx, new_map, new_workloads, fresh

    def _finish(
        self,
        sctx: ShardedContext,
        stats: ContextStats,
        new_map: Dict[Tuple[int, ...], AnalysisContext],
        new_workloads: Dict[Tuple[int, ...], Workload],
        allocation: Allocation,
    ) -> None:
        """Commit a mutation's context, stats and allocation."""
        self._allocation = allocation
        self._sctx = sctx
        self._shard_contexts = new_map
        self._shard_workloads = new_workloads
        self._last_stats = stats
        self._last_check_count = stats.checks
        for name in self._plan_totals:
            self._plan_totals[name] += getattr(stats, name)

    def add(self, transaction: Transaction) -> Allocation:
        """Add a transaction; returns the new optimal allocation.

        A batch of one (:meth:`apply_batch`).  Only the component the
        newcomer merges into is re-analyzed; when the old levels still
        suffice with the newcomer at the top level, the floored
        refinement probes the newcomer alone.
        """
        return self.apply_batch([("add", transaction)])

    def remove(self, tid: int) -> Allocation:
        """Remove a transaction; returns the new optimal allocation.

        A batch of one (:meth:`apply_batch`).  Only the departed
        component's fragments are refined, downward from their previous
        levels; a departing singleton costs no robustness check and no
        conflict-index build at all.
        """
        return self.apply_batch([("remove", tid)])

    def apply_batch(self, mutations: Iterable[BatchMutation]) -> Allocation:
        """Apply a batch of mutations with one re-analysis per touched shard.

        ``mutations`` is an ordered sequence of ``("add", Transaction)``
        / ``("remove", tid)`` entries; :meth:`add` and :meth:`remove`
        are batches of one.  The whole batch is validated first (a
        duplicate add or a remove of an absent tid raises
        :class:`~repro.core.workload.WorkloadError` *before* any state
        changes), then every plan update is applied — the plan merges
        only the components a newcomer's objects reach and re-checks
        connectivity only over a departed component's survivors — and
        finally each touched component is re-analyzed **once** against
        the coalesced membership.  Untouched components keep their
        sub-workloads, contexts and levels.

        A touched component starts from its old levels with its
        newcomers at the top level — robust by removal monotonicity
        when it gained nobody, otherwise checked, falling back to
        uniform top.  When none of its prior members departed, the old
        optimum floors the refinement (pointwise monotonicity), so a
        component whose old levels still suffice probes only its
        newcomers; removals may free capacity below the old optimum,
        so a removal-hit component refines without floors.

        Because the optimum is unique (Proposition 4.2) the resulting
        allocation is bit-identical to applying the same mutations one
        at a time — pinned by the stateful equivalence suite — while
        the delta-restricted analysis cost amortizes across the batch.
        Returns the new optimal allocation.
        """
        ops: List[BatchMutation] = []
        present = set(self._transactions)
        for entry in mutations:
            kind, value = entry
            if kind == "add":
                if not isinstance(value, Transaction):
                    raise WorkloadError('batch "add" takes a Transaction')
                if value.tid in present:
                    raise WorkloadError(
                        f"transaction {value.tid} already present"
                    )
                present.add(value.tid)
            elif kind == "remove":
                if not isinstance(value, int) or isinstance(value, bool):
                    raise WorkloadError('batch "remove" takes a transaction id')
                if value not in present:
                    raise WorkloadError(f"no transaction with id {value}")
                present.discard(value)
            else:
                raise WorkloadError(f"unknown batch mutation kind {kind!r}")
            ops.append((kind, value))
        if not ops:
            return self._allocation
        stats = ContextStats()
        self._plan.stats = stats
        adds = sum(1 for kind, _ in ops if kind == "add")
        with current_tracer().span(
            "incremental.batch", adds=adds, removes=len(ops) - adds
        ) as batch_span:
            dirty: Set[int] = set()
            newcomers: Set[int] = set()
            removal_hit: Set[int] = set()
            for kind, value in ops:
                if kind == "add":
                    txn = value  # type: ignore[assignment]
                    self._transactions[txn.tid] = txn
                    self._plan.add(txn)
                    dirty.add(txn.tid)
                    newcomers.add(txn.tid)
                else:
                    tid = value  # type: ignore[assignment]
                    del self._transactions[tid]
                    survivors = self._plan.remove(tid)
                    dirty.update(survivors)
                    removal_hit.update(survivors)
                    dirty.discard(tid)
                    newcomers.discard(tid)
            workload, sctx, new_map, new_workloads, fresh = (
                self._rebuild_context(stats, dirty)
            )
            old = self._allocation
            bottom, top = self._levels[0], self._levels[-1]
            levels = {t: old[t] for t in workload.tids if t in old}
            for index in fresh:
                shard = sctx.plan.shards[index]
                sub_workload = sctx.shard_workload(index)
                ctx = sctx.shard_context(index)
                start = Allocation(
                    {t: top if t in newcomers else old[t] for t in shard}
                )
                floors = None
                if removal_hit.isdisjoint(shard):
                    floors = {
                        t: bottom if t in newcomers else old[t] for t in shard
                    }
                if not newcomers.isdisjoint(shard) and _witness_exists(
                    sub_workload, start, "bitset", ctx
                ):
                    start = Allocation.uniform(sub_workload, top)
                refined = refine_allocation(
                    sub_workload, start, self._levels, context=ctx, floors=floors
                )
                levels.update(refined.items())
            self._finish(sctx, stats, new_map, new_workloads, Allocation(levels))
            batch_span.set(
                checks=self._last_check_count,
                shards=len(sctx.plan),
                touched=len(fresh),
            )
        return self._allocation

    # -- warm-state export/import --------------------------------------
    #: Version stamp of the :meth:`save_state` document.  Bump on any
    #: incompatible change; :meth:`load_state` rejects other versions.
    STATE_VERSION = 1

    def save_state(self) -> Dict[str, object]:
        """The manager's warm state as a JSON-ready document.

        Captures everything needed to resume allocation maintenance
        after a restart *warm*: the workload (text format), the current
        optimal allocation, the class of levels and the shard plan (so a
        restore resumes the dynamic partition without a full union-find
        build).
        Pure data — no pickled objects — so snapshots survive version
        skew and can be inspected with any JSON tool.
        """
        workload = self.workload
        return {
            "version": self.STATE_VERSION,
            "levels": [level.name for level in self._levels],
            "workload": str(workload),
            "allocation": {
                str(tid): level.name for tid, level in self._allocation.items()
            },
            "plan": [list(shard) for shard in self._plan.shards],
        }

    @classmethod
    def load_state(
        cls,
        state: Dict[str, object],
        verify: bool = False,
    ) -> "AllocationManager":
        """Rebuild a manager from :meth:`save_state` output.

        The restored manager resumes *warm*: the shard plan is resumed
        and per-shard contexts are rebuilt for the snapshot's workload,
        so the next mutation's work — checks executed, plan upkeep — is
        identical to a manager that never restarted.  Two fields written
        by earlier builds are ignored: ``witnesses`` (cached witness
        chains) and ``method`` (the manager's engine choice).

        ``verify=True`` additionally re-checks that the snapshot's
        allocation is robust for its workload and raises
        :class:`~repro.core.workload.WorkloadError` when it is not —
        the corruption-safe restore mode of ``repro serve``.

        Raises:
            ValueError: on an unsupported state version.
            WorkloadError: on a malformed workload/allocation pair, or
                (with ``verify=True``) a non-robust allocation.
        """
        if state.get("version") != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported manager state version {state.get('version')!r};"
                f" this build reads version {cls.STATE_VERSION}"
            )
        levels = tuple(
            IsolationLevel.parse(name) for name in state["levels"]  # type: ignore[union-attr]
        )
        manager = cls(levels=levels)
        workload = _parse_workload_text(str(state["workload"]))
        allocation = Allocation(
            {
                int(tid): IsolationLevel.parse(str(name))
                for tid, name in dict(state["allocation"]).items()  # type: ignore[arg-type]
            }
        )
        if set(allocation.tids) != set(workload.tids):
            raise WorkloadError(
                "state allocation does not cover exactly the state workload"
            )
        if not allocation.uses_only(manager._levels):
            raise WorkloadError(
                "state allocation uses levels outside the state's class"
            )
        manager._transactions = {txn.tid: txn for txn in workload}
        stats = ContextStats()
        plan: Optional[DynamicShardPlan] = None
        persisted = state.get("plan")
        if isinstance(persisted, list):
            try:
                plan = DynamicShardPlan.from_partition(
                    workload,
                    [tuple(int(t) for t in comp) for comp in persisted],
                    stats=stats,
                )
            except (WorkloadError, TypeError, ValueError):
                plan = None  # stale or corrupt partition: rebuild, never trust
        if plan is None:
            plan = DynamicShardPlan(workload, stats=stats)
        manager._plan = plan
        _workload, sctx, new_map, new_workloads, _fresh = (
            manager._rebuild_context(stats, set(workload.tids))
        )
        manager._finish(sctx, stats, new_map, new_workloads, allocation)
        if verify and not manager.check(allocation):
            raise WorkloadError(
                "state allocation is not robust for the state workload;"
                " refusing to restore a corrupt snapshot"
            )
        return manager

    def check(self, allocation: Allocation) -> bool:
        """Robustness of the current workload against an arbitrary allocation.

        Reuses the last mutation's shard contexts when they still match
        the current workload (checks against many allocations share the
        per-component conflict indexes); falls back to a fresh sharded
        context otherwise.
        """
        workload = self.workload
        sctx = self._sctx
        if sctx is None or not sctx.matches(workload):
            sctx = ShardedContext(
                workload, stats=self._last_stats, plan=self._plan.freeze()
            )
            self._sctx = sctx
        return check_robustness(workload, allocation, context=sctx).robust


def incremental_counterexample(
    previous: Optional[Counterexample],
    workload: Workload,
    allocation: Allocation,
    method: str = "bitset",
    context: Optional[AnalysisContext] = None,
) -> Optional[Counterexample]:
    """Re-decide non-robustness, reusing a previous counterexample when valid.

    A cached counterexample is reused only if (a) every chain transaction
    is still in the workload with the same operations, (b) no chain
    transaction's isolation level changed, and (c) the chain still lies
    inside a single connected component of the *current* workload's
    conflict graph.  (a) and (b) are checked explicitly: (b) compares the
    levels the witness was found against
    (:attr:`~repro.core.robustness.Counterexample.allocation`) with the
    new allocation, transaction by transaction along the chain; a witness
    that does not record its allocation is conservatively treated as
    level-changed.  (c) guards against stale witnesses after mutations
    merge or split components — a chain crossing components cannot be a
    split schedule (every quadruple needs a real conflict), so reusing
    one would certify non-robustness with garbage.  Under (a)-(c) the
    Definition 3.1 conditions are re-verified (cheap condition scan, no
    Algorithm 1 search) and the chain is reused.  Otherwise Algorithm 1
    reruns from scratch.

    Returns the (possibly reused) counterexample, or ``None`` if the
    workload is now robust.
    """
    if previous is not None:
        chain_tids = {quad.tid_i for quad in previous.spec.chain}
        intact = all(
            tid in workload
            and tid in allocation
            and workload[tid] == previous.schedule.workload[tid]
            for tid in chain_tids
        )
        levels_unchanged = intact and previous.allocation is not None and all(
            tid in previous.allocation
            and previous.allocation[tid] is allocation[tid]
            for tid in chain_tids
        )
        if intact and levels_unchanged:
            from .split_schedule import condition_failures, materialize

            if same_shard(workload, chain_tids) and not condition_failures(
                previous.spec, workload, allocation
            ):
                schedule = materialize(previous.spec, workload, allocation)
                return Counterexample(previous.spec, schedule, allocation)
    result = check_robustness(workload, allocation, method=method, context=context)
    return result.counterexample
