"""Allocation maintenance under an evolving workload.

Production workloads evolve: programs are added and retired.  Two facts —
both direct consequences of Definition 3.1 — make maintenance much cheaper
than recomputation:

* **Counterexamples survive workload growth.**  A split schedule for a
  subset extends to any superset by appending the extra transactions
  serially at the end (``T_{m+1} ... T_n`` carry no conditions).  So
  removing transactions preserves robustness.

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
conflict graph (every chain of Definition 3.1 links conflicting
transactions), and a single add/remove only reshapes the components
that touch the mutated transaction.  :class:`AllocationManager` is the
one place that analyzes *per component*: it keeps one
:class:`~repro.core.context.AnalysisContext` per conflict component,
carries the untouched components' contexts (conflict indexes, kernel
rows) across mutations verbatim, and re-analyzes only the merged or
split components, so the analysis of a mutation tracks the affected
components, not ``|T|``.  The partition itself is maintained
incrementally by a :class:`~repro.core.sharding.DynamicShardPlan` (no
per-mutation union-find over the whole workload), and every mutation —
a single add or remove is a batch of one — goes through
:meth:`AllocationManager.apply_batch`, which coalesces a batch into
**one** floors-aware re-analysis per touched component.  A re-analyzed
component gets a fresh context: nothing a probe reads survives from a
retired one, so no state can name a transaction that is gone.
:meth:`AllocationManager.check` answers whole-workload checks on the
carried contexts, so a check of a warm manager builds nothing.

Some bookkeeping of a mutation is still ``O(|T|)``: the manager builds a
whole :class:`~repro.core.workload.Workload`, a whole
:class:`~repro.core.isolation.Allocation` and an all-transaction level
dict, and visits every component to carry its context over.  Reads
build nothing: :attr:`AllocationManager.workload` is the workload the
last mutation built.

Every mutation binds one fresh :class:`~repro.core.context.ContextStats`
to the contexts it builds, so :attr:`AllocationManager.last_stats`
reports exactly the mutation's work (it reads the counters — no
estimates), and untouched components contribute exactly zero.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..observability import current_tracer
from .allocation import _refine
from .context import AnalysisContext, ContextStats
from .isolation import Allocation, IsolationLevel, POSTGRES_LEVELS
from .robustness import (
    RobustnessResult,
    _check_span,
    _first_split,
    _result,
    _validate,
    _witness_exists,
)
from .sharding import DynamicShardPlan
from .transactions import Transaction
from .workload import Workload, WorkloadError, parse_workload as _parse_workload_text

#: One batch entry: ``("add", Transaction)`` or ``("remove", tid)``.
BatchMutation = Tuple[str, Union[Transaction, int]]


class AllocationManager:
    """Maintains the optimal robust allocation of an evolving workload.

    Every check and refinement runs the bitset kernel, as every library
    entry point does.

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
        self._workload = Workload(())
        self._allocation = Allocation({})
        self._contexts: Dict[Tuple[int, ...], AnalysisContext] = {}
        self._context: Optional[AnalysisContext] = None
        self._mutated = False
        self._last_stats = ContextStats()
        self._plan = DynamicShardPlan(stats=self._last_stats)

    # ------------------------------------------------------------------
    @property
    def workload(self) -> Workload:
        """The current workload: the one the last mutation built."""
        return self._workload

    @property
    def allocation(self) -> Allocation:
        """The current optimal robust allocation."""
        return self._allocation

    @property
    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """The conflict components of the current workload.

        Ordered by smallest transaction id, members ascending — the
        order of :func:`~repro.core.sharding.conflict_components`.
        """
        return self._plan.shards

    @property
    def context(self) -> Optional[AnalysisContext]:
        """A one-unit analysis context of the current workload.

        ``None`` before the first mutation; otherwise built on the first
        read after a mutation, with its own stats.  No manager path reads
        it — the manager analyzes per component, and :meth:`check`
        answers whole-workload checks — so it only serves callers that
        pass a context to the library entry points.
        """
        if self._context is None and self._mutated:
            self._context = AnalysisContext(self._workload)
        return self._context

    @property
    def last_check_count(self) -> int:
        """Robustness checks actually executed by the last mutation.

        An exact count read off the mutation's stats — every check of a
        mutation runs through the contexts it builds, so no estimates.
        Later :meth:`check` calls do not disturb it.
        """
        return self._last_stats.checks

    @property
    def last_stats(self) -> ContextStats:
        """Full counters of the last mutation's analysis work.

        Counted only on the contexts the mutation built — untouched
        components carry their old contexts and contribute nothing, so
        ``index_builds`` counts the components the mutation re-analyzed.
        A copy taken when the mutation ends: later :meth:`check` calls
        leave it alone.
        """
        return self._last_stats

    # ------------------------------------------------------------------
    def _carry_contexts(
        self, stats: ContextStats, dirty: Set[int]
    ) -> Tuple[
        Dict[Tuple[int, ...], AnalysisContext],
        List[Tuple[Tuple[int, ...], AnalysisContext]],
    ]:
        """One context per component of the maintained plan.

        ``dirty`` is the set of transaction ids whose component
        assignment (or content) the mutation may have changed: newly
        added transactions plus the survivors of every removal-hit
        component.  A component disjoint from ``dirty`` keeps its
        context by identity — O(1), no compares, no conflict-index
        rebuilds — and so does a dirty one whose transactions ended up
        unchanged (a batch removed and re-added the same transaction),
        which keeps its optimum.  Every other component gets a fresh
        context over its own transactions, counted on ``stats``, and
        comes back in ``fresh`` too.
        """
        transactions = self._transactions
        contexts: Dict[Tuple[int, ...], AnalysisContext] = {}
        fresh: List[Tuple[Tuple[int, ...], AnalysisContext]] = []
        for members in self._plan.shards:
            context = self._contexts.get(members)
            if context is None or not dirty.isdisjoint(members):
                part = Workload(transactions[tid] for tid in members)
                if context is None or context.workload != part:
                    context = AnalysisContext(part, stats)
                    fresh.append((members, context))
            contexts[members] = context
        return contexts, fresh

    def _finish(
        self,
        workload: Workload,
        allocation: Allocation,
        contexts: Dict[Tuple[int, ...], AnalysisContext],
        stats: ContextStats,
    ) -> None:
        """Commit a mutation's workload, allocation, contexts and stats."""
        self._workload = workload
        self._allocation = allocation
        self._contexts = contexts
        self._context = None
        self._mutated = True
        self._last_stats = replace(stats)

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
            workload = Workload(self._transactions.values())
            contexts, fresh = self._carry_contexts(stats, dirty)
            old = self._allocation
            bottom, top = self._levels[0], self._levels[-1]
            levels = {t: old[t] for t in workload.tids if t in old}
            for members, context in fresh:
                start = Allocation(
                    {t: top if t in newcomers else old[t] for t in members}
                )
                floors = None
                if removal_hit.isdisjoint(members):
                    floors = {
                        t: bottom if t in newcomers else old[t] for t in members
                    }
                if not newcomers.isdisjoint(members) and _witness_exists(
                    context, start
                ):
                    start = Allocation.uniform(context.workload, top)
                levels.update(
                    _refine(context, start, self._levels, floors).items()
                )
            self._finish(workload, Allocation(levels), contexts, stats)
            batch_span.set(
                checks=stats.checks, shards=len(contexts), touched=len(fresh)
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
        optimal allocation and the class of levels.  Pure data — no
        pickled objects — so snapshots survive version skew and can be
        inspected with any JSON tool.
        """
        return {
            "version": self.STATE_VERSION,
            "levels": [level._name_ for level in self._levels],
            "workload": str(self._workload),
            "allocation": {
                str(tid): level._name_ for tid, level in self._allocation.items()
            },
        }

    @classmethod
    def load_state(
        cls,
        state: Dict[str, object],
        verify: bool = False,
    ) -> "AllocationManager":
        """Rebuild a manager from :meth:`save_state` output.

        The restored manager resumes *warm*: the component plan and the
        per-component contexts are rebuilt for the snapshot's workload,
        so the next mutation's work — checks executed, plan upkeep — is
        identical to a manager that never restarted.  Its
        :attr:`last_stats` hold the restore's own work (the plan build).
        Three fields written by earlier builds are ignored:
        ``witnesses`` (cached witness chains), ``method`` (the manager's
        engine choice) and ``plan`` (the partition, which a restore
        always rebuilds: checking a persisted one costs the same
        union-find).

        ``verify=True`` additionally re-checks that the snapshot's
        allocation is robust for its workload and raises
        :class:`~repro.core.workload.WorkloadError` when it is not —
        the corruption-safe restore mode of ``repro serve``.

        Raises:
            ValueError: on an unsupported state version, a field of the
                wrong type, or an unknown level or a class without SSI.
            WorkloadError: on a malformed workload/allocation pair, or
                (with ``verify=True``) a non-robust allocation.
        """
        version = state.get("version")
        if type(version) is not int or version != cls.STATE_VERSION:  # not True, not 1.0
            raise ValueError(
                f"unsupported manager state version {version!r};"
                f" this build reads version {cls.STATE_VERSION}"
            )
        names, text, assigned = map(state.get, ("levels", "workload", "allocation"))
        if not (isinstance(names, list) and isinstance(text, str)
                and isinstance(assigned, dict)):
            raise ValueError(
                'state fields "levels", "workload" and "allocation" must be a'
                " list of level names, workload text and a tid -> level map"
            )
        manager = cls(levels=tuple(IsolationLevel.parse(str(name)) for name in names))
        workload = _parse_workload_text(text)
        allocation = Allocation(
            {
                int(tid): IsolationLevel.parse(str(name))
                for tid, name in assigned.items()
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
        manager._plan = DynamicShardPlan(workload, stats=stats)
        contexts, _fresh = manager._carry_contexts(stats, set(workload.tids))
        manager._finish(workload, allocation, contexts, stats)
        if verify and not manager.check(allocation):
            raise WorkloadError(
                "state allocation is not robust for the state workload;"
                " refusing to restore a corrupt snapshot"
            )
        return manager

    def check(self, allocation: Allocation) -> RobustnessResult:
        """Robustness of the current workload against an arbitrary allocation.

        Algorithm 1 over the per-component contexts the mutations carry,
        so checks against many allocations share their conflict indexes
        and kernel rows.  Components are scanned in smallest-tid order,
        each in ascending ``T_1`` order until its first witness; a
        component, or a ``T_1``, above the best ``T_1`` so far is
        skipped.  The witness returned is therefore the one
        :func:`~repro.core.robustness.check_robustness` finds on the
        whole workload, and it is materialized against the whole
        workload: the split-schedule shape appends the other
        components' transactions serially at the end, where they carry
        no conditions.  Truthy exactly when the allocation is robust.

        The check is counted on the tracer (``robustness.checks``) and
        not on :attr:`last_stats`, which stays the last mutation's.
        """
        workload = self._workload
        _validate(workload, allocation)
        tracer = current_tracer()
        tracer.count("robustness.checks")
        best = None
        with _check_span(tracer, len(workload), None) as check_span:
            for members in self._plan.shards:
                t1s: Sequence[int] = members
                if best is not None:
                    cut = best.split_tid
                    if members[0] > cut:
                        break
                    t1s = [tid for tid in members if tid < cut]
                spec = _first_split(self._contexts[members], allocation, t1s)
                if spec is not None:
                    best = spec
            check_span.set(robust=best is None)
        return _result(best, workload, allocation)
