"""Argument checks and pinned outcomes of repro.mvcc.sweep.contention_sweep."""

import hashlib
import json

import pytest

from repro.mvcc.sweep import contention_sweep

#: A small sweep every row below spoils in exactly one argument.
SMALL = dict(points=(2,), transactions=4, repeat=2, sessions=2)


@pytest.mark.parametrize(
    "override, message",
    [
        ({"transactions": 0}, "transactions"),
        ({"points": []}, "points"),
        ({"strategies": []}, "strategies"),
        ({"repeat": 0}, "repeat"),
        ({"sessions": 0}, "sessions"),
        ({"benchmark": "bogus"}, "benchmark"),
        ({"strategies": ("optimal", "bogus")}, "strategies"),
    ],
    ids=[
        "no-transactions",
        "empty-points",
        "empty-strategies",
        "no-repeat",
        "no-sessions",
        "unknown-benchmark",
        "unknown-strategy",
    ],
)
def test_rejects_sweeps_it_cannot_run(override, message):
    with pytest.raises(ValueError, match=message):
        contention_sweep(**{**SMALL, **override})


def test_small_sweep_runs():
    """The base arguments of the table above make a real sweep."""
    result = contention_sweep(**SMALL)
    assert [point.strategy for point in result.points] == ["optimal", "ssi", "si"]
    assert all(point.commits > 0 for point in result.points)


def test_sweep_outcomes_are_pinned():
    """Commits, aborts by reason, operations, simulated time and latency
    percentiles of 24 small cells (18 dangerous-structure aborts among
    them) hash to a pinned digest: a change to the engine, the simulator
    or the sweep that moves any outcome shows here."""
    cells = []
    for benchmark, points in (
        ("smallbank", (2, 4, 16)),
        ("ycsb", (1.2, 0.5)),
        ("tpcc", (1, 2)),
        ("example26", None),
    ):
        result = contention_sweep(
            benchmark, points=points, transactions=20, repeat=10, sessions=8, seed=3
        )
        cells += [
            [p.case, p.commits, p.aborts, p.operations, p.sim_time, p.latency]
            for p in result.points
        ]
    assert len(cells) == 24
    assert sum(cell[2].get("dangerous-structure", 0) for cell in cells) == 18
    digest = hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()
    assert digest == "2780b2ae2076f25014f1ae9157f9f8fb7381a038d997de623dbf2d32dc7d709b"
