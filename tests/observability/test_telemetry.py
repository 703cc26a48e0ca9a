"""Unit tests: streaming telemetry, the event log, the flight recorder.

The hypothesis suite (``tests/properties/test_telemetry_properties.py``)
owns the algebraic contracts (merge algebra, quantile bracketing); this
file pins the concrete behaviors — edge cases, validation errors, ring
eviction of the windowed series and the flight recorder, the tracer
depth cap — with hand-picked inputs.
"""

import json
import re

import pytest

from repro.observability import (
    EventLog,
    StreamingHistogram,
    TraceRetainer,
    Tracer,
    RetainedTrace,
    WindowedSeries,
    new_request_id,
    validate_event,
    validate_eventlog_file,
)


class TestStreamingHistogram:
    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            StreamingHistogram().record(-0.1)

    def test_empty_histogram_reads_zero(self):
        hist = StreamingHistogram()
        assert hist.count == 0
        assert hist.quantile(0.99) == 0.0
        assert hist.mean == 0.0
        assert hist.as_dict()["p50"] == 0.0

    def test_quantile_domain(self):
        hist = StreamingHistogram()
        hist.record(1.0)
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(1.5)
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(-0.1)

    def test_zero_values_take_the_zero_bucket(self):
        hist = StreamingHistogram()
        for _ in range(3):
            hist.record(0.0)
        hist.record(4.0)
        counts = hist.bucket_counts()
        assert counts["zero"] == 3
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) >= 4.0

    def test_as_dict_summary(self):
        hist = StreamingHistogram()
        for value in (0.01, 0.02, 0.04):
            hist.record(value)
        summary = hist.as_dict()
        assert summary["count"] == 3
        assert summary["min"] == 0.01 and summary["max"] == 0.04
        assert summary["sum"] == pytest.approx(0.07)
        assert set(summary) >= {"mean", "p50", "p90", "p99"}

    def test_bounded_memory_under_extreme_values(self):
        hist = StreamingHistogram()
        for exponent in range(-60, 61):
            hist.record(10.0 ** exponent)
        # The index clamp bounds the bucket table no matter the spread.
        assert len(hist.bucket_counts()) <= 2 * 400 + 2
        assert hist.count == 121


class TestWindowedSeries:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="width"):
            WindowedSeries(width=0.0)
        with pytest.raises(ValueError, match="count"):
            WindowedSeries(windows=0)

    def test_series_zero_fills_gaps(self):
        series = WindowedSeries(width=1.0, windows=8)
        series.record(0.5)
        series.record(3.5, value=2.0)
        rows = series.series()
        assert [row["count"] for row in rows] == [1, 0, 0, 1]
        assert rows[-1]["sum"] == 2.0
        assert rows[0]["start"] == 0.0

    def test_ring_recycles_but_totals_survive(self):
        series = WindowedSeries(width=1.0, windows=4)
        for t in range(10):
            series.record(t + 0.5)
        rows = series.series()
        assert len(rows) == 4  # only the most recent windows retained
        assert rows[0]["start"] == 6.0
        assert series.total_count == 10

    def test_rate_excludes_partial_window(self):
        series = WindowedSeries(width=1.0, windows=16)
        for t in range(10):  # two events in each of the ten complete windows
            series.record(t + 0.2)
            series.record(t + 0.8)
        # 100 events in the current (partial) window must not inflate it.
        for _ in range(100):
            series.record(10.1)
        assert series.rate(now=10.5) == pytest.approx(2.0)

    def test_rate_partial_window_fallback(self):
        series = WindowedSeries(width=10.0, windows=4)
        series.record(1.0)
        series.record(2.0)
        assert series.rate(now=4.0) == pytest.approx(0.5)

    def test_as_dict(self):
        series = WindowedSeries(width=1.0, windows=4)
        series.record(0.5)
        payload = series.as_dict(now=1.5)
        assert payload["total_count"] == 1
        assert payload["series"][0]["count"] == 1
        assert "rate" in payload


class TestEventLog:
    def test_file_mirror_validates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path=path, clock=lambda: 2.0) as log:
            log.emit("request", request_id="r-1", op="add", latency_ms=1.25)
            log.emit("alert", breached=True, tags=["slo", "p99"])
        assert validate_eventlog_file(path) == 2
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {
            "ts": 2.0,
            "kind": "request",
            "request_id": "r-1",
            "op": "add",
            "latency_ms": 1.25,
        }

    def test_corrupt_file_names_the_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"ts": 1.0, "kind": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match=r":2: not valid JSON"):
            validate_eventlog_file(path)

    def test_too_deeply_nested_line_names_the_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        nested = "[" * 200_000 + "]" * 200_000
        path.write_text('{"ts": 1.0, "kind": "ok"}\n' + nested + "\n")
        with pytest.raises(ValueError, match=r":2: not valid JSON"):
            validate_eventlog_file(path)

    @pytest.mark.parametrize(
        "event, message",
        [
            ("nope", "JSON object"),
            ({"kind": "x"}, "'ts'"),
            ({"ts": -1.0, "kind": "x"}, "'ts'"),
            ({"ts": True, "kind": "x"}, "'ts'"),
            ({"ts": 1.0}, "'kind'"),
            ({"ts": 1.0, "kind": ""}, "'kind'"),
            ({"ts": 1.0, "kind": "x", "request_id": 7}, "request_id"),
            ({"ts": 1.0, "kind": "x", "deep": {"a": {"b": 1}}}, "deep"),
            ({"ts": 1.0, "kind": "x", "mixed": [1, {"a": 2}]}, "mixed"),
        ],
    )
    def test_validate_event_rejections(self, event, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            validate_event(event)

    def test_request_ids_unique_and_formed(self):
        ids = {new_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(re.fullmatch(r"r[0-9a-f]+-\d+", rid) for rid in ids)


def _trace(rid, duration, op="check"):
    return RetainedTrace(rid, op, 0.0, duration, True)


class TestTraceRetainer:
    def test_slowest_keeps_the_heaviest(self):
        retainer = TraceRetainer()
        # 40 traces: the slowest 16 are r-0 .. r-15 (durations 40 .. 25).
        for i in range(40):
            retainer.add(_trace(f"r-{i}", float(40 - i)))
        slowest = [t.request_id for t in retainer.slowest_traces()]
        assert slowest == [f"r-{i}" for i in range(16)]
        last = [t.request_id for t in retainer.last_traces()]
        assert last == [f"r-{i}" for i in range(8, 40)]
        assert retainer.added == 40

    def test_dump_payload_limits(self):
        retainer = TraceRetainer()
        for i in range(40):
            retainer.add(_trace(f"r-{i}", float(i)))
        payload = retainer.dump(last=1, slowest=2)
        assert payload["added"] == 40
        assert [t["request_id"] for t in payload["last"]] == ["r-39"]
        assert [t["request_id"] for t in payload["slowest"]] == ["r-39", "r-38"]
        assert payload["slowest"][0]["spans"] == []
        full = retainer.dump()
        assert len(full["last"]) == 32 and len(full["slowest"]) == 16


class TestTracerDepthCap:
    def test_deep_spans_are_skipped(self):
        tracer = Tracer(max_depth=2)
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    with tracer.span("d"):
                        pass
        assert [s.name for s in tracer.spans] == ["b", "a"]
        assert tracer.skipped == 2
        assert set(tracer.registry.histograms) == {"a", "b"}

    def test_skip_handle_absorbs_annotations(self):
        tracer = Tracer(max_depth=1)
        with tracer.span("root"):
            with tracer.span("deep") as span:
                span.set(ignored=True)
        assert [s.name for s in tracer.spans] == ["root"]
        assert "ignored" not in tracer.spans[0].attrs

    def test_depth_resumes_after_skipped_subtree(self):
        tracer = Tracer(max_depth=1)
        with tracer.span("first"):
            with tracer.span("skipped"):
                pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.spans] == ["first", "second"]
        assert tracer.skipped == 1

    def test_zero_depth_records_everything(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.skipped == 0
