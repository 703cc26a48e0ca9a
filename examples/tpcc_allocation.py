#!/usr/bin/env python3
"""TPC-C: the folklore result, made executable.

Run with::

    python examples/tpcc_allocation.py

The paper's introduction recalls that TPC-C is robust against snapshot
isolation — the famous fact behind Oracle's and old Postgres's use of SI
for the isolation level named "Serializable".  This example verifies the
fact on transaction-level instantiations of the five TPC-C programs and
shows what the optimal mixed allocation looks like: no SSI anywhere, and
the read-only programs safely down at read committed.
"""

from repro import Allocation, is_robust, optimal_allocation
from repro.core.context import AnalysisContext
from repro.workloads.tpcc import TPCC_PROGRAMS, TpccConfig, tpcc_one_of_each, tpcc_workload


def main() -> None:
    # One instance of each of the five programs on a small key domain.
    wl = tpcc_one_of_each(TpccConfig(warehouses=1, districts=2))
    print("TPC-C programs (transaction-level footprints):")
    for txn, name in zip(wl, TPCC_PROGRAMS):
        print(f"  T{txn.tid} {name:13s} {txn}")

    # One shared context: the three probes below reuse its conflict
    # indexes, one per conflict component.
    ctx = AnalysisContext(wl)

    # The folklore: robust against A_SI.
    print(f"\nRobust against A_SI?  {is_robust(wl, Allocation.si(wl), context=ctx)}")
    # ... but not against A_RC: the read-only queries can be split.
    print(f"Robust against A_RC?  {is_robust(wl, Allocation.rc(wl), context=ctx)}")

    # The optimal allocation never needs SSI, and puts the read-only
    # programs (OrderStatus, StockLevel) at RC when safe.
    optimum = optimal_allocation(wl, context=ctx)
    print("\nOptimal robust allocation:")
    for (tid, level), name in zip(optimum.items(), TPCC_PROGRAMS):
        print(f"  T{tid} {name:13s} -> {level}")

    # The result is stable across larger randomized mixes.
    big = tpcc_workload(20, seed=4)
    big_ctx = AnalysisContext(big)
    print(f"\n20-transaction TPC-C mix: robust vs A_SI? {is_robust(big, Allocation.si(big), context=big_ctx)}")
    mix = optimal_allocation(big, context=big_ctx)
    counts = {name: len(mix.tids_at(name)) for name in ("RC", "SI", "SSI")}
    print(f"Optimal mix: {counts}")


if __name__ == "__main__":
    main()
