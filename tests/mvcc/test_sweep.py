"""Argument checks of repro.mvcc.sweep.contention_sweep."""

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
