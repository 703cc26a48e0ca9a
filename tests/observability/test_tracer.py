"""Unit tests for the span tracer and metrics registry."""

import json
import tracemalloc

import pytest

from repro.observability import (
    NULL_TRACER,
    MetricsRegistry,
    StreamingHistogram,
    TRACE_VERSION,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
    validate_trace,
    validate_trace_file,
)


class TestNullTracer:
    def test_disabled(self):
        assert NULL_TRACER.enabled is False

    def test_span_is_noop_context_manager(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            span.set(more=2)
        assert span.span_id is None

    def test_count_is_noop(self):
        assert NULL_TRACER.count("events", 5) is None

    def test_default_tracer_is_null(self):
        assert current_tracer().enabled is False


class TestSpans:
    def test_span_records_on_exit(self):
        tracer = Tracer()
        with tracer.span("outer", key="value"):
            pass
        assert len(tracer.spans) == 1
        span = tracer.spans[0]
        assert span.name == "outer"
        assert span.attrs["key"] == "value"
        assert span.duration_s >= 0
        assert span.parent_id is None

    def test_nesting_sets_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent_id == outer.span_id
        assert by_name["outer"].span_id == outer.span_id
        assert inner.span_id != outer.span_id

    def test_inner_span_closes_before_outer(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_set_annotates_after_creation(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.set(robust=True, count=3)
        assert tracer.spans[0].attrs == {"robust": True, "count": 3}

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        parents = {s.name: s.parent_id for s in tracer.spans}
        assert parents["a"] == outer.span_id
        assert parents["b"] == outer.span_id

    def test_span_survives_exceptions(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.spans[0].name == "doomed"
        # The parent stack unwound: the next span is a root again.
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].parent_id is None

    def test_durations_feed_registry(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("step"):
                pass
        stat = tracer.registry.histograms["step"]
        assert stat.count == 3
        assert stat.total >= stat.max >= stat.min >= 0

    def test_count_feeds_registry(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits", 4)
        assert tracer.registry.counters["hits"] == 5


class TestUseTracer:
    def test_installs_and_restores(self):
        tracer = Tracer()
        before = current_tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is before

    def test_restores_on_exception(self):
        before = current_tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert current_tracer() is before

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(previous)


class TestBatchAbsorb:
    def _child(self):
        child = Tracer()
        with child.span("robustness.check", transactions=2):
            with child.span("robustness.scan_t1", t1=1):
                pass
            with child.span("robustness.scan_t1", t1=2):
                pass
        child.count("robustness.checks", 2)
        return child

    def test_absorb_reparents_roots(self):
        parent = Tracer()
        with parent.span("service.request") as request:
            parent.absorb(self._child(), parent_id=request.span_id)
        by_name = {}
        for span in parent.spans:
            by_name.setdefault(span.name, []).append(span)
        check = by_name["robustness.check"][0]
        assert check.parent_id == request.span_id
        for scan in by_name["robustness.scan_t1"]:
            assert scan.parent_id == check.span_id

    def test_absorb_copies_span_fields(self):
        child = self._child()
        parent = Tracer()
        parent.absorb(child)
        fields = [
            (s.name, s.start_s, s.duration_s, s.attrs) for s in child.spans
        ]
        assert [
            (s.name, s.start_s, s.duration_s, s.attrs) for s in parent.spans
        ] == fields
        assert {s["origin"] for s in parent.export()["spans"]} == {"main"}

    def test_absorb_assigns_fresh_ids(self):
        parent = Tracer()
        with parent.span("local"):
            pass
        parent.absorb(self._child())
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))

    def test_absorb_merges_counters_and_timers(self):
        parent = Tracer()
        parent.absorb(self._child())
        assert parent.registry.counters["robustness.checks"] == 2
        assert parent.registry.histograms["robustness.check"].count == 1
        assert parent.registry.histograms["robustness.scan_t1"].count == 2

    def test_reset_clears_counters(self):
        """A reused tracer hands each absorb only what it counted since
        its last reset."""
        parent, child = Tracer(), Tracer()
        for checks in (2, 5, 2):
            child.reset()
            child.count("robustness.checks", checks)
            parent.absorb(child)
        assert parent.registry.counters["robustness.checks"] == 9

    def test_absorb_empty_batch_is_noop(self):
        parent = Tracer()
        parent.absorb(Tracer())
        assert parent.spans == []
        assert parent.registry.counters == {}

    def test_absorb_leaves_the_child_unchanged(self):
        child = self._child()
        links = [(s.span_id, s.parent_id) for s in child.spans]
        parent = Tracer()
        with parent.span("local"):
            pass
        with parent.span("service.request") as request:
            parent.absorb(child, parent_id=request.span_id)
        assert [(s.span_id, s.parent_id) for s in child.spans] == links
        copies = parent.spans[1 : 1 + len(links)]
        assert all(copy is not own for copy, own in zip(copies, child.spans))


class TestExportValidate:
    def _trace(self):
        tracer = Tracer()
        with tracer.span("outer", n=1):
            with tracer.span("inner", tag="x"):
                pass
        tracer.count("events", 2)
        return tracer.export()

    def test_export_round_trips_validation(self):
        data = self._trace()
        validate_trace(data)
        assert data["version"] == TRACE_VERSION == 2
        assert set(data["metrics"]) == {"counters", "histograms"}
        assert data["origin"] == "main"
        assert len(data["spans"]) == 2

    def test_export_is_json_serializable(self):
        reloaded = json.loads(json.dumps(self._trace()))
        validate_trace(reloaded)

    def test_write_and_validate_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("work"):
            pass
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        data = validate_trace_file(str(path))
        assert data["spans"][0]["name"] == "work"

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.pop("version"),
            lambda d: d.update(version=99),
            lambda d: d.pop("spans"),
            lambda d: d["spans"][0].pop("name"),
            lambda d: d["spans"][0].update(duration_s=-1.0),
            lambda d: d["spans"][0].update(parent_id=123456),
            lambda d: d["spans"][1].update(span_id=d["spans"][0]["span_id"]),
            lambda d: d["metrics"]["counters"].update(bad=1.5),
        ],
        ids=[
            "no-version",
            "wrong-version",
            "no-spans",
            "nameless-span",
            "negative-duration",
            "dangling-parent",
            "duplicate-ids",
            "float-counter",
        ],
    )
    def test_validate_rejects_corruption(self, corrupt):
        data = json.loads(json.dumps(self._trace()))
        corrupt(data)
        with pytest.raises(ValueError):
            validate_trace(data)


class TestStructuralValidation:
    """The structural checks beyond the per-field schema: parent windows,
    completion-order parent references, negative starts.  Exported spans
    are [inner, outer] — children precede their parents."""

    def _trace(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        return json.loads(json.dumps(tracer.export()))

    def test_child_outside_parent_window_rejected(self):
        data = self._trace()
        inner, outer = data["spans"]
        inner["duration_s"] = outer["duration_s"] + 1.0
        with pytest.raises(ValueError, match="outside its parent"):
            validate_trace(data)

    def test_child_starting_before_parent_rejected(self):
        data = self._trace()
        inner, outer = data["spans"]
        # Keep start_s non-negative so only the window check can fire.
        outer["start_s"] += 0.5
        outer["duration_s"] += 1.0
        with pytest.raises(ValueError, match="outside its parent"):
            validate_trace(data)

    def test_parent_defined_before_child_rejected(self):
        data = self._trace()
        # Completion-order invariant: a parent record must appear after
        # its children.  Reversing the list makes inner reference a
        # parent already recorded.
        data["spans"].reverse()
        with pytest.raises(ValueError, match="at or before"):
            validate_trace(data)

    def test_self_parenting_rejected(self):
        data = self._trace()
        span = data["spans"][1]
        span["parent_id"] = span["span_id"]
        with pytest.raises(ValueError):
            validate_trace(data)

    def test_negative_start_rejected(self):
        data = self._trace()
        data["spans"][0]["start_s"] = -0.25
        with pytest.raises(ValueError, match="negative"):
            validate_trace(data)

    def test_cross_origin_windows_not_compared(self):
        # Traces from older builds hold worker spans on their own
        # clocks: a span whose origin differs from its parent's is not
        # held to the parent's window.
        tracer = Tracer()
        with tracer.span("robustness.check"):
            with tracer.span("parallel.chunk"):
                pass
        data = json.loads(json.dumps(tracer.export()))
        chunk = next(s for s in data["spans"] if s["name"] == "parallel.chunk")
        chunk["origin"] = "worker-clock"
        chunk["start_s"] = 1e6  # far outside the parent's window
        validate_trace(data)

    def test_absorbed_batches_validate(self):
        parent = Tracer()
        with parent.span("service.request") as request:
            child = Tracer()
            with child.span("robustness.check", transactions=1):
                with child.span("robustness.scan_t1", t1=1):
                    pass
            parent.absorb(child, parent_id=request.span_id)
        validate_trace(json.loads(json.dumps(parent.export())))


class TestMeanSecondsRoundTrip:
    def test_as_dict_includes_mean(self):
        stat = StreamingHistogram()
        stat.record(0.2)
        stat.record(0.4)
        data = stat.as_dict()
        assert data["mean"] == pytest.approx(0.3)
        assert data["mean"] == pytest.approx(data["sum"] / data["count"])

    def test_exported_trace_carries_mean(self):
        tracer = Tracer()
        with tracer.span("scan"):
            pass
        with tracer.span("scan"):
            pass
        data = json.loads(json.dumps(tracer.export()))
        validate_trace(data)
        histogram = data["metrics"]["histograms"]["scan"]
        assert histogram["mean"] == histogram["sum"] / 2

    def test_validator_rejects_non_numeric_mean(self):
        tracer = Tracer()
        with tracer.span("scan"):
            pass
        exported = json.dumps(tracer.export())
        for field in ("mean", "count", "sum", "p99"):
            data = json.loads(exported)
            data["metrics"]["histograms"]["scan"][field] = "fast"
            with pytest.raises(ValueError, match=field):
                validate_trace(data)

    def test_mean_optional_for_older_traces(self, v1_trace_path):
        data = validate_trace_file(v1_trace_path)
        for timer in data["metrics"]["timers"].values():
            del timer["mean_s"]
        validate_trace(data)  # pre-mean_s version-1 traces stay valid
        data["metrics"]["timers"]["robustness.check"]["mean_s"] = "fast"
        with pytest.raises(ValueError, match="mean_s"):
            validate_trace(data)


class TestMergeEdgeCases:
    def test_empty_timer_into_populated_keeps_min(self):
        populated = StreamingHistogram()
        populated.record(0.5)
        populated.merge(StreamingHistogram())
        assert populated.count == 1
        assert populated.min == pytest.approx(0.5)
        assert populated.max == pytest.approx(0.5)

    def test_populated_into_empty_keeps_min(self):
        empty = StreamingHistogram()
        other = StreamingHistogram()
        other.record(0.5)
        empty.merge(other)
        assert (empty.count, empty.min, empty.max, empty.total) == (1, 0.5, 0.5, 0.5)
        assert empty.quantiles() == other.quantiles()

    def test_empty_registry_merge_both_directions(self):
        populated = MetricsRegistry()
        populated.record("scan", 0.25)
        populated.incr("hits", 2)
        populated.merge(MetricsRegistry())
        assert populated.histograms["scan"].min == pytest.approx(0.25)
        assert populated.counters["hits"] == 2
        empty = MetricsRegistry()
        empty.merge(populated)
        assert empty.histograms["scan"].min == pytest.approx(0.25)
        assert empty.counters["hits"] == 2

    def test_zero_duration_is_not_clobbered(self):
        # A genuine 0.0s minimum must survive merging (the empty guard
        # is count, not falsy min).
        a = StreamingHistogram()
        a.record(0.0)
        b = StreamingHistogram()
        b.record(0.5)
        a.merge(b)
        assert a.min == 0.0
        assert a.count == 2


class TestMemoryTracing:
    def test_root_spans_get_memory_attrs(self):
        tracer = Tracer(trace_memory=True)
        tracemalloc.start()
        try:
            with tracer.span("robustness.check"):
                sink = [bytearray(4096) for _ in range(64)]
                with tracer.span("robustness.scan_t1"):
                    pass
                del sink
        finally:
            tracemalloc.stop()
        by_name = {s.name: s for s in tracer.spans}
        attrs = by_name["robustness.check"].attrs
        assert attrs["mem_peak_kib"] >= 0
        assert "mem_current_kib" in attrs
        # Only top-level spans are stamped: nested spans stay lean.
        assert "mem_peak_kib" not in by_name["robustness.scan_t1"].attrs

    def test_no_attrs_without_tracemalloc_running(self):
        tracer = Tracer(trace_memory=True)
        with tracer.span("robustness.check"):
            pass
        assert "mem_peak_kib" not in tracer.spans[0].attrs

    def test_no_attrs_when_disabled(self):
        tracemalloc.start()
        try:
            tracer = Tracer()
            with tracer.span("robustness.check"):
                pass
        finally:
            tracemalloc.stop()
        assert "mem_peak_kib" not in tracer.spans[0].attrs


class TestMetricsRegistry:
    def test_registry_merge(self):
        ours = MetricsRegistry()
        ours.incr("hits")
        ours.record("scan", 0.25)
        theirs = MetricsRegistry()
        theirs.incr("hits", 2)
        theirs.record("scan", 0.75)
        theirs.record("probe", 0.1)
        ours.merge(theirs)
        assert ours.counters["hits"] == 3
        assert ours.histograms["scan"].count == 2
        assert ours.histograms["probe"].count == 1

    def test_as_dict_sorted(self):
        registry = MetricsRegistry()
        registry.incr("zeta")
        registry.incr("alpha")
        data = registry.as_dict()
        assert list(data["counters"]) == ["alpha", "zeta"]
