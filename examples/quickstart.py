#!/usr/bin/env python3
"""Quickstart: check robustness and compute an optimal allocation.

Run with::

    python examples/quickstart.py

Walks through the library's core loop on the classic *write skew*
workload: two transactions that each read what the other writes.
"""

from repro import (
    Allocation,
    check_robustness,
    is_conflict_serializable,
    optimal_allocation,
    workload,
)
from repro.analysis.report import explain_counterexample
from repro.core.context import AnalysisContext


def main() -> None:
    # A workload is a set of transactions written in the paper's notation.
    skew = workload("R1[x] W1[y]", "R2[y] W2[x]")
    print("Workload:")
    for txn in skew:
        print(f"  T{txn.tid}: {txn}")

    # One analysis context per workload: every check below shares each
    # conflict component's index and caches instead of rebuilding them.
    ctx = AnalysisContext(skew)

    # Is it safe to run everything at snapshot isolation?
    result = check_robustness(skew, Allocation.si(skew), context=ctx)
    print(f"\nRobust against A_SI? {result.robust}")

    # No: the checker hands back a concrete counterexample schedule,
    # allowed under A_SI yet not conflict serializable (Theorem 3.2).
    assert result.counterexample is not None
    print()
    print(explain_counterexample(result.counterexample))
    assert not is_conflict_serializable(result.counterexample.schedule)

    # Algorithm 2 computes the unique optimal robust allocation: the
    # cheapest isolation levels that still guarantee serializability.
    # The shared context makes its many robustness probes reuse the
    # structure the check above already built.
    optimum = optimal_allocation(skew, context=ctx)
    print(f"\nOptimal robust allocation: {optimum}")

    # Write skew needs SSI on both sides; a third, unrelated transaction
    # would stay at cheap read committed:
    bigger = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[private] W3[private]")
    print(f"With a private transaction added: {optimal_allocation(bigger)}")


if __name__ == "__main__":
    main()
