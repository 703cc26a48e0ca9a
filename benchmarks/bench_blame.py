"""Experiment BLAME — surveying all counterexamples and promotion sets.

Beyond the single witness of Algorithm 1, blame analysis enumerates one
counterexample per problematic triple and derives minimal promotion sets.
Expected shape: the survey stays polynomial (it is Algorithm 1's outer
loop run to completion) and promotion sets match Algorithm 2's upgrades.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.analysis.blame import blame_report, minimal_promotion_sets
from repro.core.isolation import Allocation
from repro.core.robustness import enumerate_counterexamples
from repro.workloads.generator import random_workload
from repro.workloads.smallbank import si_anomaly_triple


@pytest.mark.parametrize("transactions", [5, 10, 20])
def test_counterexample_survey_scaling(transactions):
    """Enumerating every problematic triple of a contended workload."""
    wl = random_workload(
        transactions=transactions,
        objects=transactions,
        hot_objects=2,
        hot_probability=0.7,
        seed=31,
    )
    alloc = Allocation.si(wl)
    list(enumerate_counterexamples(wl, alloc, materialize_schedules=False))


def test_blame_report_smallbank():
    wl = si_anomaly_triple()
    report = blame_report(wl, Allocation.si(wl))
    assert not report.robust


def test_promotion_report(capsys):
    """BLAME table: promotion sets for the classic anomalies."""
    rows = []
    cases = [
        ("smallbank triple", si_anomaly_triple()),
        (
            "hot random (8 txns)",
            random_workload(
                transactions=8,
                objects=8,
                hot_objects=2,
                hot_probability=0.7,
                seed=1,  # a seed whose workload is not robust vs A_SI
            ),
        ),
    ]
    for name, wl in cases:
        alloc = Allocation.si(wl)
        report = blame_report(wl, alloc)
        sets = minimal_promotion_sets(wl, alloc, max_size=3)
        sets_text = (
            "; ".join(
                "{" + ",".join(f"T{t}" for t in sorted(s)) + "}" for s in sets
            )
            if sets
            else "none <= size 3"
        )
        rows.append((name, len(report.triples), sets_text))
    with capsys.disabled():
        print_table(
            "BLAME: problematic triples and minimal promotion sets (to SSI)",
            ["workload", "triples", "minimal promotion sets"],
            rows,
        )
