"""Unit tests for the noise-aware trace diff engine."""

import json
import math

import pytest

from repro.observability import DiffEntry, SpanRecord, Tracer, diff_totals, diff_traces


def _export(seconds_by_name):
    """A version-2 trace of one root span per name."""
    tracer = Tracer()
    for span_id, (name, seconds) in enumerate(seconds_by_name.items(), start=1):
        tracer.spans.append(SpanRecord(span_id, None, name, 0.0, seconds))
    return tracer.export()


class TestClassification:
    def test_within_threshold_is_ok(self):
        report = diff_totals({"scan": 1.0}, {"scan": 1.2})
        assert report.entries[0].status == "ok"
        assert report.verdict == "ok"
        assert report.exit_code == 0

    def test_relative_and_absolute_both_needed(self):
        # +100% but only 0.2ms absolute: under the 1ms floor, stays ok.
        report = diff_totals({"scan": 0.0002}, {"scan": 0.0004})
        assert report.entries[0].status == "ok"
        # +2ms absolute but only +10% relative: under the 25%, stays ok.
        report = diff_totals({"scan": 0.020}, {"scan": 0.022})
        assert report.entries[0].status == "ok"

    def test_regression_over_both_thresholds(self):
        report = diff_totals({"scan": 0.010}, {"scan": 0.020})
        entry = report.entries[0]
        assert entry.status == "regression"
        assert entry.ratio == pytest.approx(2.0)
        assert report.verdict == "regression"
        assert report.exit_code == 1

    def test_improvement_is_symmetric_and_not_fatal(self):
        report = diff_totals({"scan": 0.020}, {"scan": 0.010})
        assert report.entries[0].status == "improvement"
        assert report.exit_code == 0

    def test_one_sided_names_are_skipped(self):
        report = diff_totals({"old": 1.0}, {"new": 1.0})
        statuses = {e.key: e.status for e in report.entries}
        assert statuses == {"old": "skipped", "new": "skipped"}
        assert report.compared == 0
        assert report.exit_code == 0

    def test_custom_thresholds(self):
        report = diff_totals(
            {"scan": 0.010},
            {"scan": 0.0125},
            max_regress=0.10,
            abs_floor_s=0.001,
        )
        assert report.entries[0].status == "regression"

    @pytest.mark.parametrize(
        "thresholds",
        [
            {"max_regress": -0.5, "abs_floor_s": -0.01},
            {"max_regress": -0.5},
            {"abs_floor_s": -0.01},
            {"max_regress": math.nan, "abs_floor_s": 0.0},
            {"abs_floor_s": math.nan},
        ],
        ids=[
            "both-negative",
            "negative-relative",
            "negative-floor",
            "nan-relative",
            "nan-floor",
        ],
    )
    def test_thresholds_that_invert_the_verdict_are_rejected(self, thresholds):
        # A negative threshold flags an unchanged phase; NaN clears a 10x one.
        data = _export({"scan": 0.010})
        with pytest.raises(ValueError):
            diff_traces(data, data, **thresholds)

    def test_entry_ratio_none_without_base(self):
        assert DiffEntry("x", None, 1.0, "skipped").ratio is None
        assert DiffEntry("x", 0.0, 1.0, "ok").ratio is None


class TestReportSurface:
    def test_as_dict_shape(self):
        report = diff_totals({"scan": 0.010}, {"scan": 0.020})
        data = json.loads(json.dumps(report.as_dict()))
        assert data["verdict"] == "regression"
        assert data["compared"] == 1
        assert data["entries"][0]["key"] == "scan"
        assert data["entries"][0]["ratio"] == pytest.approx(2.0)

    def test_render_mentions_verdict_and_thresholds(self):
        report = diff_totals({"scan": 1.0}, {"scan": 1.0})
        text = report.render()
        assert "Verdict: OK" in text
        assert "+25% relative" in text


class TestDiffTraces:
    def test_same_trace_is_ok(self):
        data = _export({"scan": 0.5})
        assert diff_traces(data, data).verdict == "ok"

    def test_slower_phase_flagged(self):
        base = _export({"scan": 0.010, "merge": 0.005})
        cur = _export({"scan": 0.030, "merge": 0.005})
        report = diff_traces(base, cur)
        statuses = {e.key: e.status for e in report.entries}
        assert statuses == {"scan": "regression", "merge": "ok"}
