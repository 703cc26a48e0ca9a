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
touched.  This module finds the components: an :class:`AccessIndex`
lists who reads and who writes each object, and a flood fill over it
collects one transaction's component; :func:`conflict_components`
partitions a whole workload with it, and the manager keeps one index
under churn and re-derives only the components a mutation touched.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Iterator, Set, Tuple

from .transactions import Transaction
from .workload import Workload

__all__ = [
    "AccessIndex",
    "conflict_components",
]


class AccessIndex:
    """The live transactions by tid, with each object's readers and writers.

    :meth:`add` and :meth:`remove` cost the transaction's own operations;
    :meth:`component` flood-fills one conflict component.  Two
    transactions conflict iff they access a common object and at least
    one of them writes it, so an object with a writer links all of its
    readers and writers, and readers of an object nobody writes stay
    apart.
    """

    __slots__ = ("transactions", "_readers", "_writers")

    def __init__(self, transactions: Iterable[Transaction] = ()):
        self.transactions: Dict[int, Transaction] = {}
        self._readers: Dict[str, Set[int]] = {}
        self._writers: Dict[str, Set[int]] = {}
        for txn in transactions:
            self.add(txn)

    def add(self, txn: Transaction) -> None:
        """Index ``txn`` under its tid (which must not be indexed yet)."""
        tid = txn.tid
        self.transactions[tid] = txn
        for obj in txn.read_set:
            self._readers.setdefault(obj, set()).add(tid)
        for obj in txn.write_set:
            self._writers.setdefault(obj, set()).add(tid)

    def remove(self, tid: int) -> None:
        """Drop the indexed transaction ``tid``."""
        txn = self.transactions.pop(tid)
        for accessors, objects in (
            (self._readers, txn.read_set),
            (self._writers, txn.write_set),
        ):
            for obj in objects:
                tids = accessors[obj]
                tids.discard(tid)
                if not tids:
                    del accessors[obj]

    def component(self, tid: int) -> Tuple[int, ...]:
        """The members of ``tid``'s conflict component, ascending.

        A flood fill from ``tid`` that expands each object once, so it
        costs the component's own operations, never the index's size.
        """
        transactions, readers, writers = self.transactions, self._readers, self._writers
        members = {tid}
        stack = [tid]
        expanded: Set[str] = set()
        while stack:
            txn = transactions[stack.pop()]
            for obj in chain(txn.read_set, txn.write_set):
                if obj in expanded:
                    continue
                expanded.add(obj)
                obj_writers = writers.get(obj)
                if not obj_writers:
                    continue
                for accessors in (obj_writers, readers.get(obj, ())):
                    for other in accessors:
                        if other not in members:
                            members.add(other)
                            stack.append(other)
        return tuple(sorted(members))

    def components(self, seeds: Iterable[int]) -> Iterator[Tuple[int, ...]]:
        """The components holding ``seeds``, each once.

        Seeds are visited in ascending order and a seed already placed
        is skipped, so the components come in the order of their
        smallest seed.
        """
        placed: Set[int] = set()
        for seed in sorted(seeds):
            if seed not in placed:
                members = self.component(seed)
                placed.update(members)
                yield members


def conflict_components(workload: Workload) -> Tuple[Tuple[int, ...], ...]:
    """Connected components of the conflict graph, without building it.

    One :class:`AccessIndex` over the workload and one flood fill per
    component — ``O(total operations)``.  Components are ordered by
    their smallest transaction id; members are in ascending id order.

    Examples:
        >>> from repro.core.workload import workload
        >>> wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[p] W3[p]")
        >>> conflict_components(wl)
        ((1, 2), (3,))
    """
    return tuple(AccessIndex(workload).components(workload.tids))
