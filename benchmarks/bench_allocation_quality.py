"""Experiment ALLOC — optimal allocation mix as contention varies.

Expected shape: with little contention nearly everything lands on RC;
raising the write probability and concentrating accesses on a hot set
pushes transactions up to SI (write-write conflicts: first-committer-wins
is needed) and SSI (rw-antidependency cycles), and the fraction of
workloads robustly allocatable over {RC, SI} falls.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.core.allocation import optimal_allocation
from repro.core.isolation import ORACLE_LEVELS
from repro.workloads.generator import GeneratorConfig, random_workload

SWEEP = {
    "read-mostly": GeneratorConfig(
        transactions=10, objects=30, write_probability=0.1
    ),
    "balanced": GeneratorConfig(
        transactions=10, objects=30, write_probability=0.5
    ),
    "write-heavy": GeneratorConfig(
        transactions=10, objects=30, write_probability=0.9
    ),
    "hotspot": GeneratorConfig(
        transactions=10,
        objects=30,
        write_probability=0.5,
        hot_objects=3,
        hot_probability=0.8,
    ),
    "hot+writes": GeneratorConfig(
        transactions=10,
        objects=30,
        write_probability=0.9,
        hot_objects=3,
        hot_probability=0.8,
    ),
}

SEEDS = range(10)


def _mix(config):
    totals = {"RC": 0, "SI": 0, "SSI": 0, "oracle_ok": 0, "n": 0}
    for seed in SEEDS:
        wl = random_workload(config, seed=seed)
        optimum = optimal_allocation(wl)
        for name in ("RC", "SI", "SSI"):
            totals[name] += len(optimum.tids_at(name))
        totals["oracle_ok"] += optimal_allocation(wl, ORACLE_LEVELS) is not None
        totals["n"] += len(wl)
    return totals


@pytest.mark.parametrize("scenario", list(SWEEP))
def test_allocation_mix_vs_contention(scenario):
    """One scenario of the Algorithm 2 sweep."""
    _mix(SWEEP[scenario])


def test_contention_sweep_report(capsys):
    """The full ALLOC table (fractions of transactions per level)."""
    rows = []
    for scenario, config in SWEEP.items():
        totals = _mix(config)
        n = totals["n"]
        rows.append(
            (
                scenario,
                f"{totals['RC'] / n:.0%}",
                f"{totals['SI'] / n:.0%}",
                f"{totals['SSI'] / n:.0%}",
                f"{totals['oracle_ok']}/{len(SEEDS)}",
            )
        )
    with capsys.disabled():
        print_table(
            "ALLOC: optimal level mix vs contention (10 seeds x 10 txns)",
            ["scenario", "RC", "SI", "SSI", "{RC,SI} allocatable"],
            rows,
        )
    # Shape assertions: contention monotonically pushes levels upward.
    pct = {row[0]: row for row in rows}
    read_mostly_rc = float(pct["read-mostly"][1].rstrip("%"))
    hot_writes_rc = float(pct["hot+writes"][1].rstrip("%"))
    assert read_mostly_rc > hot_writes_rc


def test_ycsb_skew_sweep_report(capsys):
    """ALLOC-YCSB: optimal mix as the Zipfian skew rises (workload A)."""
    from repro.workloads.ycsb import ycsb_workload

    rows = []
    for theta in (0.0, 0.5, 0.9, 0.99):
        totals = {"RC": 0, "SI": 0, "SSI": 0, "n": 0}
        for seed in range(8):
            wl = ycsb_workload(
                workload="A",
                transactions=10,
                keys=50,
                theta=theta,
                seed=seed,
            )
            optimum = optimal_allocation(wl)
            for name in ("RC", "SI", "SSI"):
                totals[name] += len(optimum.tids_at(name))
            totals["n"] += len(wl)
        rows.append(
            (
                f"theta={theta}",
                f"{totals['RC'] / totals['n']:.0%}",
                f"{totals['SI'] / totals['n']:.0%}",
                f"{totals['SSI'] / totals['n']:.0%}",
            )
        )
    with capsys.disabled():
        print_table(
            "ALLOC-YCSB: level mix vs Zipfian skew (YCSB-A, 8 seeds x 10 txns)",
            ["skew", "RC", "SI", "SSI"],
            rows,
        )
    first_rc = float(rows[0][1].rstrip("%"))
    last_rc = float(rows[-1][1].rstrip("%"))
    assert first_rc >= last_rc  # skew never lowers levels
