"""Experiment RATE — how often non-robustness actually bites.

Robustness is qualitative; the *anomaly rate* (fraction of uniformly
sampled interleavings that yield an allowed, non-serializable schedule)
quantifies the risk of under-allocating.  Expected shape: the rate is
exactly zero for robust allocations (cross-checked against Algorithm 1),
grows with contention for non-robust ones, and the Monte-Carlo estimate
tracks the anomaly frequency observed on the MVCC engine.  The SAMP
table reports the cost of one uniform draw as the workload grows.
"""

from __future__ import annotations

import pytest

from conftest import print_table, timed
from repro.core.isolation import Allocation
from repro.core.robustness import is_robust
from repro.core.serialization import is_conflict_serializable
from repro.core.workload import workload
from repro.enumeration.sampling import estimate_anomaly_rate, sample_interleaving
from repro.mvcc import exploration_config, simulate_workload, trace_to_schedule
from repro.workloads.generator import random_workload

SKEW = workload("R1[x] W1[y]", "R2[y] W2[x]")
SKEW_PLUS_READER = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[x] R3[y]")


#: Draws per row of the SAMP table; each time is their median.
SAMP_DRAWS = 50


def test_sampling_scaling_report(capsys):
    """SAMP table: uniform interleaving draws over workload size.

    The 30- and 60-transaction rows exceed the ~170-total-operation
    ceiling the old float-weighted sampler crashed at (``random.choices``
    casts factorial weights to double); the integer sampler's cost per
    draw is O(total ops x transactions) with small constants.  Every
    draw must hold every operation.
    """
    import random

    rows = []
    for transactions in (10, 30, 60):
        wl = random_workload(
            transactions=transactions, objects=transactions, min_ops=6, max_ops=6, seed=3
        )
        rng = random.Random(11)
        draws = []
        _, median = timed(lambda: draws.append(sample_interleaving(wl, rng)), SAMP_DRAWS)
        assert all(len(order) == wl.operation_count() for order in draws)
        rows.append((transactions, wl.operation_count(), f"{median * 1e6:.0f}"))
    with capsys.disabled():
        print_table(
            f"SAMP: uniform interleaving draws, median of {SAMP_DRAWS}",
            ["|T|", "total ops", "median per draw (us)"],
            rows,
        )


@pytest.mark.parametrize("level", ["RC", "SI", "SSI"])
def test_anomaly_rate_write_skew(level):
    alloc = Allocation.uniform(SKEW, level)
    estimate = estimate_anomaly_rate(SKEW, alloc, samples=300, seed=5)
    assert (estimate.anomalous == 0) == is_robust(SKEW, alloc)


def test_rate_report(capsys):
    """RATE table: Monte-Carlo rate vs MVCC-observed anomaly frequency."""
    rows = []
    for name, wl in (("skew", SKEW), ("skew+reader", SKEW_PLUS_READER)):
        for level in ("RC", "SI", "SSI"):
            alloc = Allocation.uniform(wl, level)
            estimate = estimate_anomaly_rate(wl, alloc, samples=300, seed=5)
            observed = 0
            runs = 40
            for seed in range(runs):
                trace, _ = simulate_workload(
                    wl, alloc, exploration_config(len(wl), seed=seed)
                )
                schedule = trace_to_schedule(trace, wl)
                observed += not is_conflict_serializable(schedule)
            rows.append(
                (
                    name,
                    level,
                    f"{estimate.anomaly_rate:.1%}",
                    f"{observed / runs:.1%}",
                )
            )
    with capsys.disabled():
        print_table(
            "RATE: anomaly rate — uniform sampling vs MVCC engine",
            ["workload", "level", "sampled rate", "engine-observed"],
            rows,
        )
    by_key = {(r[0], r[1]): r for r in rows}
    # Shape: SSI rows are exactly zero; RC/SI rows are non-zero for skew.
    assert by_key[("skew", "SSI")][2] == "0.0%"
    assert by_key[("skew", "SI")][2] != "0.0%"
