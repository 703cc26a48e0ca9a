"""The analysis context: the conflict index Algorithms 1 and 2 read.

Algorithm 2 (and the incremental :class:`~repro.core.incremental.AllocationManager`)
decide optimality by issuing ``O(|T| * levels)`` robustness probes, and
every probe reads only the conflict structure of the transactions —
who reads and writes each object — never the allocation being probed.
:class:`AnalysisContext` is that structure: built once from the
transactions and threaded through
:func:`~repro.core.robustness.check_robustness`,
:func:`~repro.core.allocation.optimal_allocation` and friends, so a full
Algorithm 2 run builds it exactly once.

Every chain of Definition 3.1 links conflicting transactions, so a
witness never leaves its ``T_1``'s conflict component, and the context
numbers each component on its own: a transaction's bit is its rank
within its component, so masks are as wide as a component.  The bitset
kernel (:mod:`repro.core.kernel`) evaluates Definition 3.1 on these
masks.  Every table derived from a numbering — kernel rows, pair
tables — lives on its :class:`Component`, so a renumbering, which builds
new components, leaves no stale table.  All counters are exposed on the
context's :class:`ContextStats`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, DefaultDict, Dict, Iterable, List, Optional, Set, Tuple

from ..observability import current_tracer
from .conflicts import conflicting_pairs
from .operations import Operation
from .transactions import Transaction
from .workload import Workload, WorkloadError

if TYPE_CHECKING:
    from .kernel import _T1Row


class Component:
    """One conflict component, numbered by rank: bit ``i`` of its masks is
    ``tids[i]``, its ``i``-th smallest member, so ascending bit order is
    ascending tid order, the candidate order of every engine.
    ``nbrs[i]`` is the mask of the members conflicting with ``tids[i]``.

    The tables derived from this numbering are filled here on first use:
    ``rows[i]`` is the kernel row of ``tids[i]`` as ``T_1``
    (:func:`~repro.core.kernel.row_of`), and ``pairs[tid_b, tid_a]`` the
    conflicting-operation pairs between two members
    (:meth:`AnalysisContext.conflicting_pairs`).
    """

    __slots__ = ("tids", "nbrs", "rows", "pairs")

    def __init__(self, tids: Tuple[int, ...], nbrs: Tuple[int, ...]):
        self.tids = tids
        self.nbrs = nbrs
        self.rows: List[Optional[_T1Row]] = [None] * len(tids)
        self.pairs: Dict[Tuple[int, int], Tuple[Tuple[Operation, Operation], ...]] = {}

    def members(self, mask: int) -> List[int]:
        """The members whose bits ``mask`` holds, ascending."""
        tids = self.tids
        found = []
        while mask:
            low = mask & -mask
            found.append(tids[low.bit_length() - 1])
            mask ^= low
        return found


@dataclass
class ContextStats:
    """Counters exposed by :class:`AnalysisContext`.

    Attributes:
        checks: robustness verdicts reached through the context: one
            per check or probe, and for each transaction Algorithm 2
            refines, one per candidate level its scan decides (each
            level up to the one adopted, or all of them), which is the
            number of per-level probes it answers for.  The work of a
            scan is in ``kernel_row_hits``.
        index_builds: conflict indexes built: one per context, at
            construction.  The incremental manager keeps one context and
            renumbers it in place, so a mutation builds none.
        pair_builds: conflicting-operation tables built (per ordered
            pair of transactions; read by witness-chain assembly).
        pair_hits: those tables served from the cache.
        kernel_row_builds: per-``T_1`` kernel rows built.
        kernel_row_hits: kernel row requests served from the cache:
            with ``kernel_row_builds``, one per ``T_1`` a scan visits.
    """

    checks: int = 0
    index_builds: int = 0
    pair_builds: int = 0
    pair_hits: int = 0
    kernel_row_builds: int = 0
    kernel_row_hits: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (for reports and benchmarks)."""
        return dict(vars(self))


class AnalysisContext:
    """The conflict index of a set of transactions, numbered per component.

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

    Two transactions conflict iff they access a common object and at
    least one of them writes it, so an object with a writer links all of
    its readers and writers into one component, and readers of an object
    nobody writes stay apart.  The context keeps the analyzed
    transactions by tid (:attr:`transactions`, its only record of them)
    and, per object, the tids reading and writing it (:meth:`add`,
    :meth:`remove`); :meth:`renumber` flood-fills the components holding
    some seeds and numbers each: ``component_of[t]`` and ``bit[t]``
    place a transaction, and ``readers[o]`` / ``writers[o]`` are the
    masks of an object with a writer, in its component's bits.  The
    constructor adds the workload's transactions and numbers every
    component (one ``context.index_build`` span, one
    :attr:`ContextStats.index_builds`).  Numbering always builds new
    :class:`Component` objects, so the tables cached on an old one —
    kernel rows (:func:`~repro.core.kernel.row_of`) and
    conflicting-pair tables (:meth:`conflicting_pairs`) — go with it.

    A caller must not reuse a context after its workload changes (the
    entry points raise :class:`~repro.core.workload.WorkloadError` on a
    mismatch, :meth:`ensure`).  The one exception is the
    :class:`~repro.core.incremental.AllocationManager`, which keeps one
    context over its live set: a mutation adds and removes transactions
    and renumbers the components they touch, whose new components start
    with empty tables.
    """

    def __init__(self, workload: Workload, stats: Optional[ContextStats] = None):
        self.stats = stats if stats is not None else ContextStats()
        self.transactions: Dict[int, Transaction] = {}
        self._reader_tids: DefaultDict[str, Set[int]] = defaultdict(set)
        self._writer_tids: DefaultDict[str, Set[int]] = defaultdict(set)
        self.component_of: Dict[int, Component] = {}
        self.bit: Dict[int, int] = {}
        self.readers: Dict[str, int] = {}
        self.writers: Dict[str, int] = {}
        # Registered components, keyed by their smallest member.
        self._components: Dict[int, Component] = {}
        with current_tracer().span("context.index_build", transactions=len(workload)):
            for txn in workload:
                self.add(txn)
            self.renumber(self.transactions)
        self.stats.index_builds += 1

    # -- validation ----------------------------------------------------
    def ensure(self, workload: Workload) -> None:
        """Raise :class:`WorkloadError` unless ``workload`` holds exactly
        the context's transactions (an equal copy passes)."""
        transactions = self.transactions
        if len(workload) != len(transactions) or any(
            transactions.get(txn.tid) != txn for txn in workload
        ):
            raise WorkloadError(
                "AnalysisContext was built for a different workload;"
                " build a fresh context after the workload changes"
            )

    # -- mutation --------------------------------------------------------
    def add(self, txn: Transaction) -> None:
        """Record the reads and writes of ``txn`` (whose tid must be
        absent); the next :meth:`renumber` that reaches it numbers it."""
        tid = txn.tid
        self.transactions[tid] = txn
        reader_tids, writer_tids = self._reader_tids, self._writer_tids
        for obj in txn.read_set:
            reader_tids[obj].add(tid)
        for obj in txn.write_set:
            writer_tids[obj].add(tid)

    def remove(self, tid: int) -> None:
        """Drop ``tid`` and its numbering; the caller renumbers the other
        members of its component.  An object left unwritten loses its masks."""
        txn = self.transactions.pop(tid)
        for accessors, objects in (
            (self._reader_tids, txn.read_set),
            (self._writer_tids, txn.write_set),
        ):
            for obj in objects:
                tids = accessors[obj]
                tids.discard(tid)
                if not tids:
                    del accessors[obj]
        for obj in txn.write_set:
            if obj not in self._writer_tids:
                self.readers.pop(obj, None)
                self.writers.pop(obj, None)
        component = self.component_of.pop(tid, None)
        if component is not None:
            self._unregister(component)
            del self.bit[tid]

    def _unregister(self, component: Component) -> None:
        if self._components.get(component.tids[0]) is component:
            del self._components[component.tids[0]]

    def renumber(self, seeds: Iterable[int]) -> List[Component]:
        """Re-derive and number the components holding ``seeds``.

        Seeds are visited in ascending order and a seed already placed is
        skipped, so the components come in the order of their smallest
        seed.  Each flood fill expands an object once, so it costs the
        component's own operations; every old component it reaches is
        replaced.
        """
        transactions = self.transactions
        reader_tids, writer_tids = self._reader_tids, self._writer_tids
        found: List[Component] = []
        placed: Set[int] = set()
        for seed in sorted(seeds):
            if seed in placed:
                continue
            members = {seed}
            stack = [seed]
            # The component's written objects, in the order reached.
            objects: Dict[str, None] = {}
            while stack:
                txn = transactions[stack.pop()]
                for obj in chain(txn.write_set, txn.read_set):
                    if obj in objects or obj not in writer_tids:
                        continue
                    objects[obj] = None
                    for accessors in (writer_tids[obj], reader_tids.get(obj, ())):
                        for other in accessors:
                            if other not in members:
                                members.add(other)
                                stack.append(other)
            placed |= members
            found.append(self._number(tuple(sorted(members)), objects))
        return found

    def _number(self, tids: Tuple[int, ...], objects: Iterable[str]) -> Component:
        """Number the component ``tids``, whose written objects are ``objects``."""
        flags = {tid: 1 << i for i, tid in enumerate(tids)}
        readers, writers = self.readers, self.writers
        reader_tids, writer_tids = self._reader_tids, self._writer_tids
        accessors: Dict[str, int] = {}
        for obj in objects:
            written = 0
            for tid in writer_tids[obj]:
                written |= flags[tid]
            read = 0
            if obj in reader_tids:
                for tid in reader_tids[obj]:
                    read |= flags[tid]
            writers[obj] = written
            readers[obj] = read
            accessors[obj] = read | written
        transactions = self.transactions
        nbrs = []
        for tid in tids:
            txn = transactions[tid]
            mask = 0
            for obj in txn.write_set:
                mask |= accessors[obj]
            for obj in txn.read_set:
                if obj in accessors:
                    mask |= writers[obj]
            nbrs.append(mask & ~flags[tid])
        component = Component(tids, tuple(nbrs))
        component_of = self.component_of
        for tid in tids:
            old = component_of.get(tid)
            if old is not None:
                self._unregister(old)
            component_of[tid] = component
        self._components[tids[0]] = component
        self.bit.update(zip(tids, range(len(tids))))
        return component

    # -- queries ---------------------------------------------------------
    def components(self) -> List[Component]:
        """Every component, ordered by smallest member."""
        registered = self._components
        return [registered[first] for first in sorted(registered)]

    def conflict_neighbours(self, tid: int) -> Set[int]:
        """Transactions having an operation conflicting with one of ``tid``.

        Built by inserting in ascending tid order, which gives the set the
        iteration order a pairwise build would; the kernel's connecting
        chains take their breadth-first starts in that order.
        """
        component = self.component_of[tid]
        return set(component.members(component.nbrs[self.bit[tid]]))

    def conflict(self, tid_i: int, tid_j: int) -> bool:
        """Whether the two transactions have conflicting operations."""
        component = self.component_of[tid_i]
        if self.component_of[tid_j] is not component:
            return False
        return (component.nbrs[self.bit[tid_i]] >> self.bit[tid_j]) & 1 == 1

    def conflicting_pairs(
        self, tid_b: int, tid_a: int
    ) -> Tuple[Tuple[Operation, Operation], ...]:
        """Cached ``(b, a)`` conflicting-operation pairs from ``tid_b`` into ``tid_a``.

        Cached on ``tid_b``'s component: two transactions with a pair
        conflict, so they share it, and two without one keep ``()``
        until a renumbering merges them.
        """
        tables = self.component_of[tid_b].pairs
        cached = tables.get((tid_b, tid_a))
        if cached is not None:
            self.stats.pair_hits += 1
            return cached
        transactions = self.transactions
        pairs = tables[tid_b, tid_a] = tuple(
            conflicting_pairs(transactions[tid_b], transactions[tid_a])
        )
        self.stats.pair_builds += 1
        return pairs

    # -- check accounting ----------------------------------------------
    def record_check(self, verdicts: int = 1) -> None:
        """Count robustness verdicts: one for a check or probe, or those
        an Algorithm 2 decision reaches."""
        self.stats.checks += verdicts
        current_tracer().count("robustness.checks", verdicts)


def _resolve(workload: Workload, context: Optional[AnalysisContext]) -> AnalysisContext:
    """The caller's context, checked against ``workload``, or a fresh one."""
    if context is None:
        return AnalysisContext(workload)
    context.ensure(workload)
    return context
