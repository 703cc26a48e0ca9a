"""Experiment TPCC — the folklore result: TPC-C is robust against SI.

Section 1 of the paper recalls that TPC-C's SI-robustness is database
folklore (and misled Oracle/old Postgres into equating SI with
Serializable).  The bench (1) verifies robustness against ``A_SI`` on
instantiations of the five programs, (2) shows the optimal allocation
needs no SSI and pushes the read-only programs down to RC, and (3) runs
Algorithm 1/2 on TPC-C-shaped workloads.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.core.allocation import optimal_allocation
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.robustness import is_robust
from repro.workloads.tpcc import TpccConfig, tpcc_one_of_each, tpcc_workload


@pytest.mark.parametrize("transactions", [5, 10, 20, 40])
def test_tpcc_si_robustness_scaling(transactions):
    """Algorithm 1 on TPC-C instantiations of growing size."""
    wl = tpcc_workload(transactions, seed=2)
    alloc = Allocation.si(wl)
    assert is_robust(wl, alloc)  # the folklore result


def test_tpcc_optimal_allocation():
    """Algorithm 2 on a TPC-C workload; no SSI should be needed."""
    wl = tpcc_workload(15, seed=2)
    optimum = optimal_allocation(wl)
    assert optimum is not None
    assert not optimum.tids_at(IsolationLevel.SSI)


def test_tpcc_report(capsys):
    """Per-program allocation table for one instance of each program."""
    wl = tpcc_one_of_each(TpccConfig(warehouses=1, districts=2))
    optimum = optimal_allocation(wl)
    robust_si = is_robust(wl, Allocation.si(wl))
    robust_rc = is_robust(wl, Allocation.rc(wl))
    programs = ["new_order", "payment", "order_status", "delivery", "stock_level"]
    rows = [
        (f"T{tid} ({name})", optimum[tid].name)
        for tid, name in zip(wl.tids, programs)
    ]
    assert robust_si  # folklore
    with capsys.disabled():
        print_table(
            "TPCC: optimal allocation per program "
            f"(robust vs A_SI: {robust_si}, vs A_RC: {robust_rc})",
            ["program", "optimal level"],
            rows,
        )
