#!/usr/bin/env python3
"""Maintaining the optimal allocation as the workload evolves.

Run with::

    python examples/incremental_allocation.py

A DBA's workload is not static: programs ship and retire.  The
:class:`repro.AllocationManager` keeps the optimal robust allocation
current across changes, warm-starting from the previous optimum instead
of re-running Algorithm 2 — exactly, thanks to two facts provable from
the paper's Definition 3.1: counterexamples survive workload growth, and
optima only move upward when transactions are added.
"""

from repro import AllocationManager, parse_transaction
from repro.core.allocation import optimal_allocation

ARRIVALS = [
    ("analytics query ships", "R1[orders] R1[customers]"),
    ("order ingestion ships", "R2[orders] W2[orders]"),
    ("customer updater ships", "R3[customers] W3[customers]"),
    ("cross-report ships (reads what 2 and 3 write)", "R4[orders] R4[customers]"),
    ("reconciliation ships (the skew-maker)", "R5[customers] W5[orders]"),
]


def main() -> None:
    manager = AllocationManager()
    for description, text in ARRIVALS:
        txn = parse_transaction(text)
        allocation = manager.add(txn)
        print(f"{description}:")
        print(f"  + T{txn.tid}: {txn}")
        print(f"  optimal allocation now: {allocation}")
        print(f"  robustness checks spent: {manager.last_check_count}")
        # The warm start is exact: always equals batch Algorithm 2.
        assert allocation == optimal_allocation(manager.workload)
        print()

    print("reconciliation is retired again:")
    allocation = manager.remove(5)
    print(f"  optimal allocation now: {allocation}")
    assert allocation == optimal_allocation(manager.workload)


if __name__ == "__main__":
    main()
