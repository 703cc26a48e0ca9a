"""Percentiles, the ten-beyond rule, spreads and the compare verdicts."""

import pytest

from bench import stats
from bench.compare import verdict


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    # rank = ceil(q/100 * n): 0.9 * 15 = 13.5 -> the 14th smallest
    assert stats.percentile(list(range(15, 0, -1)), 90) == 14


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_ten_beyond_rule():
    assert stats.beyond(100, 90) == 10 and stats.supported(100, 90)
    assert stats.beyond(99, 90) == 9 and not stats.supported(99, 90)
    assert stats.beyond(1000, 99) == 10 and stats.supported(1000, 99)
    assert not stats.supported(999, 99)
    assert stats.beyond(5000, 99) == 50
    assert stats.beyond(0, 50) == 0


def test_spread_is_iqr_over_median():
    assert stats.spread([10.0]) == 0.0
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, _, q3 = 8.5, 10.0, 11.5  # statistics.quantiles' default method
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)


def test_verdicts():
    base = [100.0, 101.0, 99.0]
    assert verdict(base, [100.0, 102.0, 98.0], True, 0.1)[0] == "ok"
    assert verdict(base, [130.0, 131.0, 129.0], True, 0.1)[0] == "REGRESSION"
    assert verdict(base, [70.0, 71.0, 69.0], True, 0.1)[0] == "improved"
    # Higher is better: a drop is the regression.
    assert verdict(base, [70.0, 71.0, 69.0], False, 0.1)[0] == "REGRESSION"
    # Too noisy to tell, unless every new round beats every old one.
    noisy = [60.0, 100.0, 140.0]
    assert verdict(base, noisy, True, 0.1)[0] == "unresolved"
    assert verdict(base, noisy, True, 0.1, check_spread=False)[0] == "ok"  # setup_s
    assert verdict(noisy, [50.0, 52.0, 55.0], True, 0.1)[0] == "improved"
