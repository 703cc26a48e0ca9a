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
rows) across mutations verbatim, and re-analyzes only the components a
mutation touched, so the analysis of a mutation tracks the affected
components, not ``|T|``.  The manager keeps one
:class:`~repro.core.sharding.AccessIndex` (who reads and who writes
each object) and re-derives a touched component by a flood fill from
its newcomers and the survivors of its removals; a component no such
seed reaches is never visited.  Every mutation — a single add or
remove is a batch of one — goes through
:meth:`AllocationManager.apply_batch`, which coalesces a batch into
**one** floors-aware re-analysis per touched component.  A re-analyzed
component gets a fresh context: nothing a probe reads survives from a
retired one, so no state can name a transaction that is gone.
:meth:`AllocationManager.check` answers whole-workload checks on the
carried contexts, so a check of a warm manager builds nothing.

Some bookkeeping of a mutation is still ``O(|T|)``: the manager builds a
whole :class:`~repro.core.workload.Workload`, a whole
:class:`~repro.core.isolation.Allocation` and an all-transaction level
dict.  Reads build nothing: :attr:`AllocationManager.workload` is the
workload the last mutation built.

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
from .sharding import AccessIndex
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
        self._index = AccessIndex()
        self._workload = Workload(())
        self._allocation = Allocation({})
        # One context per conflict component, keyed by its members, and
        # each live tid's component.
        self._contexts: Dict[Tuple[int, ...], AnalysisContext] = {}
        self._component_of: Dict[int, Tuple[int, ...]] = {}
        self._components: Optional[Tuple[Tuple[int, ...], ...]] = ()
        self._context: Optional[AnalysisContext] = None
        self._mutated = False
        self._last_stats = ContextStats()

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
        order of :func:`~repro.core.sharding.conflict_components`;
        cached until the next mutation.
        """
        if self._components is None:
            self._components = tuple(sorted(self._contexts))
        return self._components

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
        ``index_builds`` counts the re-analyzed components that ran a
        probe (one left at the bottom level, with no newcomer, probes
        nothing and builds no index).
        A copy taken when the mutation ends: later :meth:`check` calls
        leave it alone.
        """
        return self._last_stats

    # ------------------------------------------------------------------
    def _install(self, members: Tuple[int, ...], context: AnalysisContext) -> None:
        """Make ``context`` the context of the component ``members``."""
        self._contexts[members] = context
        for tid in members:
            self._component_of[tid] = members

    def _retire(
        self,
        members: Tuple[int, ...],
        retired: Dict[Tuple[int, ...], AnalysisContext],
    ) -> None:
        """Move the component ``members``'s context into ``retired``."""
        context = self._contexts.pop(members, None)
        if context is not None:
            retired[members] = context

    def _finish(
        self, workload: Workload, allocation: Allocation, stats: ContextStats
    ) -> None:
        """Commit a mutation's workload, allocation and stats."""
        self._workload = workload
        self._allocation = allocation
        self._components = None
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
        changes), then every add and remove is applied to the access
        index.  Removing a tid that was present before the batch retires
        its old component.  The components holding a newcomer, or a
        survivor of a retired component, are flood-filled once each, in
        ascending order of their smallest such tid, and every old
        component a flood fill reaches is retired too.  A new component
        with the members and transactions of a retired one keeps that
        context and its levels (a batch removed and re-added the same
        transaction); every other one gets a fresh context and is
        re-analyzed **once** against the coalesced membership.
        Components no flood fill reaches are never visited: they keep
        their contexts and levels.

        A re-analyzed component starts from its old levels with its
        newcomers at the top level — robust by removal monotonicity
        when it gained nobody, otherwise checked, falling back to
        uniform top.  Unless it holds a survivor of a retired
        component, every old component inside it is whole, so the old
        optimum floors the refinement (pointwise monotonicity) and a
        component whose old levels still suffice probes only its
        newcomers; removals may free capacity below the old optimum,
        so a component holding a survivor refines without floors.

        Because the optimum is unique (Proposition 4.2) the resulting
        allocation is bit-identical to applying the same mutations one
        at a time — pinned by the stateful equivalence suite — while
        the delta-restricted analysis cost amortizes across the batch.
        Returns the new optimal allocation.
        """
        ops: List[BatchMutation] = []
        present = set(self._index.transactions)
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
        adds = sum(1 for kind, _ in ops if kind == "add")
        with current_tracer().span(
            "incremental.batch", adds=adds, removes=len(ops) - adds
        ) as batch_span:
            index = self._index
            newcomers: Set[int] = set()
            retired: Dict[Tuple[int, ...], AnalysisContext] = {}
            for kind, value in ops:
                if kind == "add":
                    txn = value  # type: ignore[assignment]
                    index.add(txn)
                    newcomers.add(txn.tid)
                    continue
                tid = value  # type: ignore[assignment]
                index.remove(tid)
                if tid in newcomers:
                    newcomers.discard(tid)
                else:
                    self._retire(self._component_of.pop(tid), retired)
            live = index.transactions
            survivors = {
                t for members in retired for t in members
                if t in live and t not in newcomers
            }
            workload = Workload(live.values())
            old = self._allocation
            bottom, top = self._levels[0], self._levels[-1]
            levels = {t: old[t] for t in workload.tids if t in old}
            touched = 0
            for members in index.components(newcomers | survivors):
                for tid in members:
                    reached = self._component_of.get(tid)
                    if reached is not None:
                        self._retire(reached, retired)
                part = Workload(live[t] for t in members)
                context = retired.get(members)
                if context is None or context.workload != part:
                    context = AnalysisContext(part, stats)
                    touched += 1
                    start = Allocation(
                        {t: top if t in newcomers else old[t] for t in members}
                    )
                    floors = None
                    if survivors.isdisjoint(members):
                        floors = {
                            t: bottom if t in newcomers else old[t]
                            for t in members
                        }
                    if not newcomers.isdisjoint(members) and _witness_exists(
                        context, start
                    ):
                        start = Allocation.uniform(part, top)
                    levels.update(
                        _refine(context, start, self._levels, floors).items()
                    )
                self._install(members, context)
            self._finish(workload, Allocation(levels), stats)
            batch_span.set(
                checks=stats.checks, shards=len(self._contexts), touched=touched
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
    def load_state(cls, state: Dict[str, object]) -> "AllocationManager":
        """Rebuild a manager from :meth:`save_state` output.

        The restored manager resumes *warm*: the access index and the
        per-component contexts are rebuilt for the snapshot's workload,
        so the next mutation's work — checks executed, indexes built —
        is identical to a manager that never restarted.  A restore
        builds no conflict index and runs no check (its contexts build
        on first use), so its :attr:`last_stats` are zero.  The
        snapshot's allocation is trusted as the optimum; a caller that
        does not trust it checks it with :meth:`check`.  Three fields
        written by earlier builds are ignored: ``witnesses`` (cached
        witness chains), ``method`` (the manager's engine choice) and
        ``plan`` (the partition, which a restore always re-derives).

        Raises:
            ValueError: on an unsupported state version, a field of the
                wrong type, or an unknown level or a class without SSI.
            WorkloadError: on a malformed workload/allocation pair.
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
        index = manager._index = AccessIndex(workload)
        stats = ContextStats()
        for members in index.components(workload.tids):
            part = Workload(index.transactions[t] for t in members)
            manager._install(members, AnalysisContext(part, stats))
        manager._finish(workload, allocation, stats)
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
            for members in self.components:
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
