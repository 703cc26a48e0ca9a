"""Argument checks and pinned outcomes of repro.mvcc.sweep.contention_sweep."""

import hashlib
import json
import re

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
        ({"points": (2.9,)}, "customers must be int, got 2.9"),
        ({"points": (True,)}, "customers must be int, got True"),
        ({"points": (4, float("inf"))}, "customers must be int, got inf"),
        ({"points": ("bogus",)}, "customers must be int, got 'bogus'"),
        ({"points": (1,)}, "customers"),
        (
            {"benchmark": "tpcc", "points": (1, 2.5)},
            "warehouses must be int, got 2.5",
        ),
        ({"benchmark": "ycsb", "points": ("bogus",)}, "theta must be int or float"),
        ({"benchmark": "ycsb", "points": (False,)}, "theta must be int or float"),
        ({"benchmark": "figure2", "points": ("foo", "bar")}, "workload must be 'paper'"),
        ({"benchmark": "example26", "points": (2,)}, "workload must be 'paper', got 2"),
    ],
    ids=[
        "no-transactions",
        "empty-points",
        "empty-strategies",
        "no-repeat",
        "no-sessions",
        "unknown-benchmark",
        "unknown-strategy",
        "fractional-customers",
        "bool-customers",
        "infinite-customers",
        "string-customers",
        "one-customer",
        "fractional-warehouses",
        "string-theta",
        "bool-theta",
        "unlabelled-paper-workload",
        "numbered-paper-workload",
    ],
)
def test_rejects_sweeps_it_cannot_run(override, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        contention_sweep(**{**SMALL, **override})


def test_rejects_bad_knob_values_before_any_cell_runs(monkeypatch):
    """A bad knob value later in ``points`` stops the sweep before the
    good ones before it are simulated."""

    def no_simulation(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr("repro.mvcc.sweep.simulate_workload", no_simulation)
    with pytest.raises(ValueError, match="customers"):
        contention_sweep(**{**SMALL, "points": (2, 4, 8.5)})


def test_small_sweep_runs():
    """The base arguments of the table above make a real sweep."""
    result = contention_sweep(**SMALL)
    assert [point.strategy for point in result.points] == ["optimal", "ssi", "si"]
    assert all(point.commits > 0 for point in result.points)


#: The 24 small cells both pinned digests below hash.
PINNED_SWEEPS = (
    ("smallbank", (2, 4, 16)),
    ("ycsb", (1.2, 0.5)),
    ("tpcc", (1, 2)),
    ("example26", None),
)


@pytest.fixture(scope="module")
def pinned_points():
    points = []
    for benchmark, knob_values in PINNED_SWEEPS:
        result = contention_sweep(
            benchmark, points=knob_values, transactions=20, repeat=10, sessions=8, seed=3
        )
        points += result.points
    return points


def _digest(rows):
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def test_sweep_outcomes_are_pinned(pinned_points):
    """Commits, aborts by reason, operations, simulated time and latency
    percentiles of 24 small cells (18 dangerous-structure aborts among
    them) hash to a pinned digest: a change to the engine, the simulator
    or the sweep that moves any outcome shows here."""
    cells = [
        [p.case, p.commits, p.aborts, p.operations, p.sim_time, p.latency]
        for p in pinned_points
    ]
    assert len(cells) == 24
    assert sum(cell[2].get("dangerous-structure", 0) for cell in cells) == 18
    digest = _digest(cells)
    assert digest == "2780b2ae2076f25014f1ae9157f9f8fb7381a038d997de623dbf2d32dc7d709b"


def test_sweep_series_are_pinned(pinned_points):
    """The time-series of the same 24 cells (every window's start,
    commits, aborts and mean latency, and the streaming latency summary)
    hash to a pinned digest: a change to how the simulator records or
    exports its telemetry that moves any number shows here."""
    cells = [
        [
            p.case,
            [
                [w["start"], w["commits"], w["aborts"], w["mean_latency"]]
                for w in p.series["windows"]
            ],
            p.series["latency"],
        ]
        for p in pinned_points
    ]
    assert sum(len(windows) for _, windows, _ in cells) == 315
    digest = _digest(cells)
    assert digest == "d874aa8f24d860358adacc5524270b8c5411406381eadb528c6170a51f4327c0"
