"""Experiment SMALLBANK — the SI-anomalous contrast workload.

SmallBank (cited in the paper via Alomari et al. [4]) is the standard
not-robust-against-SI workload: by Proposition 5.4 it is not robustly
allocatable over {RC, SI}, so Algorithm 2 must place SSI somewhere.  The
bench verifies the shape and runs the checkers on SmallBank mixes.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.core.allocation import optimal_allocation
from repro.core.isolation import Allocation, ORACLE_LEVELS
from repro.core.robustness import is_robust
from repro.workloads.smallbank import (
    SmallBankConfig,
    si_anomaly_triple,
    smallbank_one_of_each,
    smallbank_workload,
)


def test_anomaly_triple_detection():
    """Algorithm 1 finds the Balance/WriteCheck/TransactSavings anomaly."""
    wl = si_anomaly_triple()
    alloc = Allocation.si(wl)
    assert not is_robust(wl, alloc)


@pytest.mark.parametrize("transactions", [5, 10, 20])
def test_smallbank_allocation_scaling(transactions):
    """Algorithm 2 on SmallBank mixes of growing size."""
    wl = smallbank_workload(
        transactions, SmallBankConfig(customers=3), seed=3
    )
    assert optimal_allocation(wl) is not None


def test_smallbank_report(capsys):
    """Per-program allocation for one instance of each program."""
    wl = smallbank_one_of_each(SmallBankConfig(customers=2), seed=1)
    optimum = optimal_allocation(wl)
    programs = [
        "balance",
        "deposit_checking",
        "transact_savings",
        "amalgamate",
        "write_check",
    ]
    rows = [
        (f"T{tid} ({name})", optimum[tid].name)
        for tid, name in zip(wl.tids, programs)
    ]
    oracle_exists = optimal_allocation(wl, ORACLE_LEVELS) is not None
    robust_si = is_robust(wl, Allocation.si(wl))
    with capsys.disabled():
        print_table(
            "SMALLBANK: optimal allocation per program "
            f"(robust vs A_SI: {robust_si}, {{RC,SI}} allocatable: {oracle_exists})",
            ["program", "optimal level"],
            rows,
        )
