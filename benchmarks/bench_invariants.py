"""Experiment INV — integrity invariants per isolation level.

The application-level restatement of the whole paper: each isolation
level protects a class of invariants, and Algorithm 2 picks the cheapest
level that protects yours.  Expected shape (strict hierarchy):

* conservation of money (lost updates): broken at RC, safe at SI/SSI;
* non-negative totals (write skew): broken at RC and SI, safe at SSI;
* optimal allocations reproduce exactly the safe rows at minimal cost.
"""

from __future__ import annotations

import pytest

from conftest import print_table
from repro.core.isolation import IsolationLevel
from repro.mvcc.procedures import ProcedureCall, run_procedures
from repro.workloads.smallbank_app import (
    conservation_invariant,
    deposit_scenario,
    initial_state,
    skew_scenario,
    total_balance_invariant,
)

LEVELS = (IsolationLevel.RC, IsolationLevel.SI, IsolationLevel.SSI)
SEEDS = range(25)


def _violation_rate(calls, level, check) -> float:
    violations = 0
    for seed in SEEDS:
        pinned = [ProcedureCall(c.tid, c.body, c.params, level) for c in calls]
        run = run_procedures(pinned, initial_state=initial_state(1), seed=seed)
        violations += not check(run)
    return violations / len(SEEDS)


def _scenarios():
    init = initial_state(1)
    return [
        (
            "conservation (deposits)",
            deposit_scenario(),
            lambda run: conservation_invariant(init, run.final_state, 1, 40),
        ),
        (
            "non-negative total (skew)",
            skew_scenario(),
            lambda run: not total_balance_invariant(run.final_state, 1),
        ),
    ]


@pytest.mark.parametrize("level", [level.name for level in LEVELS])
def test_invariant_scenarios(level):
    parsed = IsolationLevel.parse(level)
    for _name, calls, check in _scenarios():
        _violation_rate(calls, parsed, check)


def test_invariant_report(capsys):
    """INV table with the strict-hierarchy shape assertions."""
    rows = []
    for name, calls, check in _scenarios():
        rates = [
            _violation_rate(calls, level, check) for level in LEVELS
        ]
        rows.append((name, *(f"{rate:.0%}" for rate in rates)))
    with capsys.disabled():
        print_table(
            "INV: invariant violation rates (25 seeded runs)",
            ["invariant", "RC", "SI", "SSI"],
            rows,
        )
    by_name = {row[0]: row for row in rows}
    conservation = by_name["conservation (deposits)"]
    skew = by_name["non-negative total (skew)"]
    assert conservation[1] != "0%" and conservation[2] == "0%" and conservation[3] == "0%"
    assert skew[1] != "0%" and skew[2] != "0%" and skew[3] == "0%"
