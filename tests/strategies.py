"""Hypothesis strategies for workloads, allocations and schedules, and a
pairwise reference partition into conflict components."""

from __future__ import annotations

import itertools
from typing import List, Tuple

from hypothesis import strategies as st

from repro.core.conflicts import transactions_conflict
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.operations import Operation, read, write
from repro.core.transactions import Transaction
from repro.core.workload import Workload

OBJECTS = ("x", "y", "z", "u", "v")


@st.composite
def transactions(
    draw, tid: int, max_accesses: int = 3, objects: Tuple[str, ...] = OBJECTS
) -> Transaction:
    """A random transaction with ``1..max_accesses`` object accesses.

    Each accessed object contributes a read, a write, or a read followed
    by a write (the one-read-one-write normal form of the paper).
    """
    count = draw(st.integers(min_value=1, max_value=max_accesses))
    pool = draw(
        st.lists(
            st.sampled_from(objects), min_size=count, max_size=count, unique=True
        )
    )
    ops: List[Operation] = []
    for obj in pool:
        mode = draw(st.sampled_from(("r", "w", "rw")))
        if mode in ("r", "rw"):
            ops.append(read(tid, obj))
        if mode in ("w", "rw"):
            ops.append(write(tid, obj))
    return Transaction(tid, ops)


@st.composite
def workloads(
    draw,
    min_transactions: int = 1,
    max_transactions: int = 4,
    max_accesses: int = 3,
    objects: Tuple[str, ...] = OBJECTS,
) -> Workload:
    """A random workload of small transactions."""
    count = draw(
        st.integers(min_value=min_transactions, max_value=max_transactions)
    )
    return Workload(
        [
            draw(transactions(tid, max_accesses=max_accesses, objects=objects))
            for tid in range(1, count + 1)
        ]
    )


@st.composite
def sparse_tid_workloads(draw, max_transactions: int = 40) -> Workload:
    """Up to ``max_transactions`` transactions with non-contiguous tids below 5,000."""
    tids = sorted(
        draw(st.sets(st.integers(1, 5000), min_size=1, max_size=max_transactions))
    )
    return Workload(draw(transactions(tid, max_accesses=4)) for tid in tids)


@st.composite
def allocations(draw, workload: Workload) -> Allocation:
    """A random allocation over the given workload."""
    return Allocation(
        {
            tid: draw(st.sampled_from(list(IsolationLevel)))
            for tid in workload.tids
        }
    )


@st.composite
def allocated_workloads(
    draw,
    min_transactions: int = 1,
    max_transactions: int = 4,
    max_accesses: int = 3,
) -> Tuple[Workload, Allocation]:
    """A random workload together with a random allocation."""
    wl = draw(
        workloads(
            min_transactions=min_transactions,
            max_transactions=max_transactions,
            max_accesses=max_accesses,
        )
    )
    return wl, draw(allocations(wl))


@st.composite
def templates(draw, name: str, max_accesses: int = 3) -> "TransactionTemplate":
    """A random transaction template over a few relations and variables."""
    from repro.templates.template import TemplateOperation, TransactionTemplate

    relations = ("rel_a", "rel_b", "rel_c")
    variables = ("X", "Y")
    count = draw(st.integers(min_value=1, max_value=max_accesses))
    ops = []
    seen = set()
    for _ in range(count):
        relation = draw(st.sampled_from(relations))
        variable = draw(st.sampled_from(variables))
        mode = draw(st.sampled_from(("r", "w", "rw")))
        for kind in ("R", "W") if mode == "rw" else (mode.upper(),):
            key = (kind, relation, variable)
            if key not in seen:
                seen.add(key)
                ops.append(TemplateOperation(kind, relation, variable))
    return TransactionTemplate(name, ops)


@st.composite
def template_sets(draw, max_templates: int = 3) -> list:
    """A list of random templates with distinct names."""
    count = draw(st.integers(min_value=1, max_value=max_templates))
    return [draw(templates(f"P{i}")) for i in range(1, count + 1)]


@st.composite
def interleaved_orders(draw, workload: Workload) -> Tuple[Operation, ...]:
    """A random interleaving of the workload's operations."""
    pending = [list(txn.operations) for txn in workload]
    order: List[Operation] = []
    while any(pending):
        available = [i for i, seq in enumerate(pending) if seq]
        choice = draw(st.sampled_from(available))
        order.append(pending[choice].pop(0))
    return tuple(order)


def brute_force_components(wl: Workload) -> set:
    """Reference partition: union-by-pairwise ``transactions_conflict``."""
    parent = {tid: tid for tid in wl.tids}

    def find(tid):
        while parent[tid] != tid:
            parent[tid] = parent[parent[tid]]
            tid = parent[tid]
        return tid

    for a, b in itertools.combinations(wl, 2):
        if transactions_conflict(a, b):
            parent[find(a.tid)] = find(b.tid)
    groups = {}
    for tid in wl.tids:
        groups.setdefault(find(tid), []).append(tid)
    return {tuple(sorted(group)) for group in groups.values()}
