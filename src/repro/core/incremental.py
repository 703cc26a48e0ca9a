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

A third fact makes maintenance cheaper still: robustness and optima
decompose over the connected components of the conflict graph (every
chain of Definition 3.1 links conflicting transactions), and a single
add/remove only reshapes the components that touch the mutated
transaction.  :class:`AllocationManager` keeps one
:class:`~repro.core.context.AnalysisContext` over its live set — the
one record of its transactions — and updates it in place: every
mutation (:meth:`AllocationManager.apply_batch`; a single add or remove
is a batch of one) renumbers only the components holding a newcomer or
a survivor of a removal, which start with empty tables (kernel rows and
pair tables live on a component), and re-analyzes each **once**.
Untouched components keep their rows and levels, so the analysis of a
mutation tracks the affected components, not ``|T|``, and builds no
index.  :meth:`AllocationManager.check` is Algorithm 1's scan on the
same warm context.

Some bookkeeping of a mutation is still ``O(|T|)``: the manager builds a
whole :class:`~repro.core.isolation.Allocation` and an all-transaction
level dict.  :attr:`AllocationManager.workload` is built on first read
after a mutation.  :attr:`AllocationManager.last_stats` reports exactly
a mutation's work: the context's counters it moved.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..observability import current_tracer
from .allocation import _refine
from .context import AnalysisContext, ContextStats
from .isolation import Allocation, IsolationLevel, POSTGRES_LEVELS
from .kernel import level_list
from .robustness import RobustnessResult, _first_witness, _probe, _result, _validate
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
        # One context over the live set; every mutation updates it in
        # place.
        self._context = AnalysisContext(Workload(()))
        self._allocation = Allocation({})
        self._workload: Optional[Workload] = None
        self._components: Optional[Tuple[Tuple[int, ...], ...]] = ()
        self._last_stats = ContextStats()
        # Each live transaction's line of the save_state workload text,
        # rendered by the first save after its add, dropped on remove.
        self._lines: Dict[int, str] = {}

    # ------------------------------------------------------------------
    @property
    def workload(self) -> Workload:
        """The current workload, built from the context's transactions;
        cached until the next mutation."""
        if self._workload is None:
            self._workload = Workload(self._context.transactions.values())
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
            self._components = tuple(
                component.tids for component in self._context.components()
            )
        return self._components

    @property
    def context(self) -> AnalysisContext:
        """The manager's warm analysis context over the current workload.

        Its conflict index, with the kernel rows and pair tables cached
        on its components, is the one the mutations maintain, so a
        library call passed this context (with :attr:`workload`) reuses
        them.  Valid until the next mutation, which updates it in place.
        """
        return self._context

    @property
    def last_check_count(self) -> int:
        """Robustness checks the last mutation executed (``last_stats.checks``)."""
        return self._last_stats.checks

    @property
    def last_stats(self) -> ContextStats:
        """Full counters of the last mutation's analysis work.

        What the mutation moved on the context's counters, so untouched
        components contribute nothing and ``index_builds`` is 0 (the one
        context is renumbered in place).  Later :meth:`check` calls leave
        it alone.
        """
        return self._last_stats

    # ------------------------------------------------------------------
    def _finish(self, allocation: Allocation, stats: ContextStats) -> None:
        """Commit a mutation's allocation and stats."""
        self._allocation = allocation
        self._workload = None
        self._components = None
        self._last_stats = stats

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
        levels; a departing singleton costs no robustness check at all.
        """
        return self.apply_batch([("remove", tid)])

    def apply_batch(self, mutations: Iterable[BatchMutation]) -> Allocation:
        """Apply a batch of mutations with one re-analysis per touched component.

        ``mutations`` is an ordered sequence of ``("add", Transaction)``
        / ``("remove", tid)`` entries; :meth:`add` and :meth:`remove`
        are batches of one.  The whole batch is validated first (a
        duplicate add or a remove of an absent tid raises
        :class:`~repro.core.workload.WorkloadError` *before* any state
        changes), then every add and remove is applied to the context.
        Removing a tid that was present before the batch retires its old
        component.  The components holding a newcomer, or a
        survivor of a retired component, are flood-filled and renumbered
        once each, in ascending order of their smallest such tid; every
        old component a flood fill reaches is replaced by a new one,
        whose tables start empty.  A new component with the members and
        transactions of a retired one keeps its levels (a batch removed
        and re-added the same transaction); every other one is
        re-analyzed **once** against the coalesced membership.
        Components no flood fill reaches are never visited: they keep
        their rows and levels.

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
        context = self._context
        live = context.transactions
        ops: List[BatchMutation] = []
        present = set(live)
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
        before = context.stats.as_dict()
        adds = sum(1 for kind, _ in ops if kind == "add")
        tracer = current_tracer()
        with tracer.span(
            "incremental.batch", adds=adds, removes=len(ops) - adds
        ) as batch_span:
            newcomers: Set[int] = set()
            # Old transactions of the departed tids, and the members of
            # the old components they left.
            departed: Dict[int, Transaction] = {}
            retired: Set[Tuple[int, ...]] = set()
            for kind, value in ops:
                if kind == "add":
                    txn = value  # type: ignore[assignment]
                    context.add(txn)
                    newcomers.add(txn.tid)
                    continue
                tid = value  # type: ignore[assignment]
                if tid in newcomers:
                    newcomers.discard(tid)
                else:
                    retired.add(context.component_of[tid].tids)
                    departed[tid] = live[tid]
                context.remove(tid)
                self._lines.pop(tid, None)
            survivors = {
                t for members in retired for t in members
                if t in live and t not in newcomers
            }
            old = self._allocation
            bottom, top = self._levels[0], self._levels[-1]
            levels = {t: level for t, level in old.items() if t in live}
            touched = 0
            for component in context.renumber(newcomers | survivors):
                members = component.tids
                if members in retired and all(
                    departed[t] == live[t] for t in members if t in departed
                ):
                    continue
                touched += 1
                start = Allocation(
                    {t: top if t in newcomers else old[t] for t in members}
                )
                floors = None
                if survivors.isdisjoint(members):
                    floors = {
                        t: bottom if t in newcomers else old[t] for t in members
                    }
                if not newcomers.isdisjoint(members):
                    start_levels, ssi = level_list(start, members)
                    if _probe(
                        context, component, start_levels, ssi, (1 << len(members)) - 1, 0
                    ):
                        start = Allocation(dict.fromkeys(members, top))
                levels.update(
                    _refine(context, start, self._levels, [component], floors).items()
                )
            after = context.stats.as_dict()
            stats = ContextStats(**{k: after[k] - before[k] for k in after})
            self._finish(Allocation(levels), stats)
            if tracer.recording:
                batch_span.set(
                    checks=stats.checks, shards=len(self.components), touched=touched
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
        inspected with any JSON tool.  The workload text is
        ``str(self.workload)``, joined from lines kept per transaction,
        so a save renders only the transactions added since the last.
        """
        live, lines = self._context.transactions, self._lines
        for tid in live.keys() - lines.keys():
            lines[tid] = f"T{tid}: {live[tid]}"
        return {
            "version": self.STATE_VERSION,
            "levels": [level._name_ for level in self._levels],
            "workload": "\n".join([lines[tid] for tid in sorted(live)]),
            "allocation": {
                str(tid): level._name_ for tid, level in self._allocation.items()
            },
        }

    @classmethod
    def load_state(cls, state: Dict[str, object]) -> "AllocationManager":
        """Rebuild a manager from :meth:`save_state` output.

        The restored manager resumes *warm*: its context is numbered
        for the snapshot's workload, so the next mutation's
        work — checks executed, rows built — is identical to a manager
        that never restarted.  A restore runs no check (kernel rows
        build on first use), so its :attr:`last_stats` are zero.  The
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
        context = manager._context
        for txn in workload:
            context.add(txn)
        context.renumber(workload.tids)
        manager._finish(allocation, ContextStats())
        return manager

    def check(self, allocation: Allocation) -> RobustnessResult:
        """Robustness of the current workload against an arbitrary allocation.

        Algorithm 1's ascending-``T_1`` scan on the manager's warm
        context, so checks against many allocations share the index,
        kernel rows and pair tables the mutations maintain.  The witness
        returned is the one :func:`~repro.core.robustness.check_robustness`
        finds on the whole workload.  Truthy exactly when the allocation
        is robust.

        The check is counted on the tracer (``robustness.checks``) and
        not on :attr:`last_stats`, which stays the last mutation's.
        """
        workload = self.workload
        _validate(workload, allocation)
        return _result(_first_witness(self._context, allocation), workload, allocation)
