"""Unit and acceptance tests for the trace profile builder.

The synthetic-trace tests pin the aggregation mechanics (grouping,
self-time clamping, folded stacks) on hand-built span lists, including
the worker spans of traces written by older builds; the acceptance test
runs a real ``check`` under ``--trace`` and checks the consistency
contract: per-name inclusive totals equal the trace's
``metrics.histograms`` sums and self times are non-negative.
"""

import pytest

from repro.cli import main
from repro.observability import (
    ROOT_KEY,
    build_profile,
    critical_path,
    folded_stacks,
    inclusive_totals,
    profile_trace_file,
    render_trace_report,
)


def _span(span_id, parent_id, name, start, duration, origin="main", **attrs):
    return {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_s": start,
        "duration_s": duration,
        "origin": origin,
        "attrs": attrs,
    }


def _trace(spans):
    return {"version": 1, "origin": "main", "spans": spans, "metrics": {}}


class TestBuildProfile:
    def test_same_name_spans_aggregate(self):
        trace = _trace(
            [
                _span(2, 1, "scan", 0.0, 0.2),
                _span(3, 1, "scan", 0.2, 0.3),
                _span(1, None, "check", 0.0, 1.0),
            ]
        )
        root = build_profile(trace)
        check = root.children["check"]
        scan = check.children["scan"]
        assert scan.count == 2
        assert scan.inclusive_s == pytest.approx(0.5)
        assert check.self_s == pytest.approx(0.5)
        assert root.key == ROOT_KEY

    def test_self_time_clamped_for_overlapping_children(self):
        # Worker children (older traces) can sum past the parent's
        # duration; the per-span self time clamps at zero rather than
        # going negative.
        trace = _trace(
            [
                _span(2, 1, "chunk", 0.0, 0.8, origin="worker-1"),
                _span(3, 1, "chunk", 0.0, 0.8, origin="worker-2"),
                _span(1, None, "dispatch", 0.0, 1.0),
            ]
        )
        root = build_profile(trace)
        dispatch = root.children["dispatch"]
        assert dispatch.self_s == 0.0
        assert dispatch.inclusive_s == pytest.approx(1.0)

    def test_chunks_stay_put_without_dispatch_sibling(self):
        trace = _trace(
            [
                _span(2, 1, "parallel.chunk", 0.0, 0.25, origin="worker-1"),
                _span(1, None, "robustness.check", 0.0, 1.0),
            ]
        )
        root = build_profile(trace)
        check = root.children["robustness.check"]
        assert "parallel.chunk" in check.children

    def test_group_by_origin_splits_workers(self):
        trace = _trace(
            [
                _span(2, 1, "parallel.chunk", 0.0, 0.2, origin="worker-1"),
                _span(3, 1, "parallel.chunk", 0.0, 0.3, origin="worker-2"),
                _span(1, None, "check", 0.0, 1.0),
            ]
        )
        root = build_profile(trace, key_attrs=("origin",))
        check = root.children["check [origin=main]"]
        keys = set(check.children)
        assert keys == {
            "parallel.chunk [origin=worker-1]",
            "parallel.chunk [origin=worker-2]",
        }
        # Split nodes still aggregate to one per-name total.
        assert inclusive_totals(root)["parallel.chunk"] == pytest.approx(0.5)

    def test_group_by_missing_attr_falls_back_to_name(self):
        trace = _trace([_span(1, None, "check", 0.0, 1.0)])
        root = build_profile(trace, key_attrs=("t1",))
        assert set(root.children) == {"check"}

    def test_root_totals(self):
        trace = _trace(
            [
                _span(1, None, "a", 0.0, 1.0),
                _span(2, None, "b", 1.0, 0.5),
            ]
        )
        root = build_profile(trace)
        assert root.count == 2
        assert root.inclusive_s == pytest.approx(1.5)
        assert root.self_s == 0.0


class TestCriticalPath:
    def test_descends_heaviest_child(self):
        trace = _trace(
            [
                _span(2, 1, "light", 0.0, 0.1),
                _span(3, 1, "heavy", 0.1, 0.7),
                _span(4, 3, "leaf", 0.1, 0.4),
                _span(1, None, "check", 0.0, 1.0),
            ]
        )
        path = [node.key for node in critical_path(build_profile(trace))]
        assert path == ["check", "heavy", "leaf"]

    def test_empty_profile(self):
        assert critical_path(build_profile(_trace([]))) == []


class TestFoldedStacks:
    def test_lines_and_values(self):
        trace = _trace(
            [
                _span(2, 1, "inner", 0.0, 0.25),
                _span(1, None, "outer", 0.0, 1.0),
            ]
        )
        lines = folded_stacks(build_profile(trace)).splitlines()
        assert "outer 750000" in lines
        assert "outer;inner 250000" in lines

    def test_zero_self_nodes_omitted(self):
        trace = _trace(
            [
                _span(2, 1, "inner", 0.0, 1.0),
                _span(1, None, "outer", 0.0, 1.0),
            ]
        )
        stacks = folded_stacks(build_profile(trace))
        assert stacks == "outer;inner 1000000\n"

    def test_empty_profile_is_empty_string(self):
        assert folded_stacks(build_profile(_trace([]))) == ""


class TestAcceptance:
    """The consistency contract on a real traced ``check``."""

    @pytest.fixture(scope="class")
    def check_trace(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace")
        workload = tmp / "wl.txt"
        workload.write_text(
            "T1: R[x] W[y]\nT2: R[y] W[x]\nT3: R[x] W[z]\n"
            "T4: R[z] W[x]\nT5: R[y] W[z]\nT6: R[z] W[y]\n",
            encoding="utf-8",
        )
        trace = tmp / "trace.json"
        main(["check", str(workload), "--uniform", "SI", "--trace", str(trace)])
        return profile_trace_file(str(trace))

    def test_inclusive_totals_match_registry_timers(self, check_trace):
        data, root = check_trace
        totals = inclusive_totals(root)
        histograms = data["metrics"]["histograms"]
        assert set(totals) == set(histograms)
        for name, histogram in histograms.items():
            assert totals[name] == pytest.approx(histogram["sum"], rel=1e-9)

    def test_self_times_non_negative(self, check_trace):
        _data, root = check_trace
        for _depth, node in root.walk():
            assert node.self_s >= 0.0
            assert node.inclusive_s >= node.self_s or node.key == ROOT_KEY

    def test_report_renders(self, check_trace):
        data, root = check_trace
        text = render_trace_report(data, root)
        assert "Profile tree:" in text
        assert "Critical path" in text
        assert "robustness.check" in text
        assert "robustness.scan_t1" in text
