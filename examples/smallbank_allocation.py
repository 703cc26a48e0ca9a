#!/usr/bin/env python3
"""SmallBank: when {RC, SI} is not enough (Section 5 in action).

Run with::

    python examples/smallbank_allocation.py

SmallBank is the standard snapshot-isolation-anomalous workload.  This
example shows Proposition 5.4 at work: because the workload is not robust
against ``A_SI``, *no* allocation over Oracle's {RC, SI} class is robust —
some transactions must be raised to SSI, which only Postgres-style
engines offer.
"""

from repro import Allocation, check_robustness, is_robustly_allocatable, optimal_allocation
from repro.core.context import AnalysisContext
from repro.core.isolation import ORACLE_LEVELS
from repro.analysis.report import explain_counterexample
from repro.workloads.smallbank import (
    SMALLBANK_PROGRAMS,
    SmallBankConfig,
    si_anomaly_triple,
    smallbank_one_of_each,
)


def main() -> None:
    # The minimal anomaly: Balance + WriteCheck + TransactSavings on one
    # customer.
    triple = si_anomaly_triple()
    print("The SmallBank anomaly triple:")
    for txn in triple:
        print(f"  T{txn.tid}: {txn}")

    # All three probes below interrogate the same workload — one shared
    # context means one conflict index per component, built once.
    ctx = AnalysisContext(triple)
    result = check_robustness(triple, Allocation.si(triple), context=ctx)
    print(f"\nRobust against A_SI?  {result.robust}")
    print()
    print(explain_counterexample(result.counterexample))

    # Section 5: no robust {RC, SI} allocation exists (Proposition 5.4)...
    print(
        f"\nRobustly allocatable over Oracle's {{RC, SI}}? "
        f"{is_robustly_allocatable(triple, ORACLE_LEVELS, context=ctx)}"
    )
    # ... but over Postgres's {RC, SI, SSI} Algorithm 2 always succeeds.
    print(f"Optimal {{RC, SI, SSI}} allocation: {optimal_allocation(triple, context=ctx)}")

    # The full five-program workload.
    wl = smallbank_one_of_each(SmallBankConfig(customers=2), seed=1)
    optimum = optimal_allocation(wl, context=AnalysisContext(wl))
    print("\nFull SmallBank (one instance of each program):")
    for (tid, level), name in zip(optimum.items(), SMALLBANK_PROGRAMS):
        print(f"  T{tid} {name:16s} -> {level}")


if __name__ == "__main__":
    main()
