"""Experiment SMALLBANK — the SI-anomalous contrast workload.

SmallBank (cited in the paper via Alomari et al. [4]) is the standard
not-robust-against-SI workload, through one anomaly: ``Balance``,
``WriteCheck`` and ``TransactSavings`` on the same customer
(:func:`~repro.workloads.smallbank.si_anomaly_triple`).  That triple is
not robust against ``A_SI``, so by Proposition 5.4 it is not robustly
allocatable over {RC, SI}, and Algorithm 2 must place SSI.

A SmallBank mix is only as anomalous as its customers make it.
``smallbank_one_of_each(SmallBankConfig(customers=2), seed=s)`` is
robust against ``A_SI`` for s = 1-3, 5 and 6, and is not for s = 4, the
one seed whose ``WriteCheck`` and ``TransactSavings`` hit the customer
its ``Balance`` reads (seeds 1, 5 and 6 put the two updates on one
customer and ``Balance`` on the other).  The report below prints seed
1's mix, so it shows a robust mix with no SSI.  The bench asserts the
shape on the triple and runs the checkers on SmallBank mixes.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.core.allocation import optimal_allocation
from repro.core.isolation import Allocation, IsolationLevel, ORACLE_LEVELS
from repro.core.robustness import is_robust
from repro.workloads.smallbank import (
    SmallBankConfig,
    si_anomaly_triple,
    smallbank_one_of_each,
    smallbank_workload,
)


def test_anomaly_triple_detection():
    """Algorithm 1 finds the Balance/WriteCheck/TransactSavings anomaly,
    and Algorithm 2 must answer it with SSI."""
    wl = si_anomaly_triple()
    alloc = Allocation.si(wl)
    assert not is_robust(wl, alloc)
    assert optimal_allocation(wl, ORACLE_LEVELS) is None  # Proposition 5.4
    optimum = optimal_allocation(wl)
    assert any(level is IsolationLevel.SSI for _, level in optimum.items())


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
