"""Span recording and self-time arithmetic."""

import pytest

from bench.tracer import Tracer, self_times, summarize


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("op", 0, 100, None, 0),
        ("a", 10, 30, 0, 0),
        ("b", 20, 50, 0, 0),  # overlaps a: [10, 50] is covered once
        ("c", 90, 120, 0, 0),  # runs past its parent: only [90, 100] counts
        ("d", 12, 18, 1, 0),  # a grandchild: covered by a, not by op
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_summary_totals_and_self_in_ms():
    spans = [("op", 0, 4_000_000, None, 0), ("x", 1_000_000, 2_000_000, 0, 0),
             ("op", 5_000_000, 6_000_000, None, 1)]
    summary = summarize(spans)
    assert summary["op"] == {"count": 2, "total_ms": 5.0, "self_ms": 4.0}
    assert summary["x"] == {"count": 1, "total_ms": 1.0, "self_ms": 1.0}


def test_tracer_nests_and_inherits_op_ids():
    tracer = Tracer()
    with tracer.span("op", op=7):
        with tracer.span("inner"):
            pass
    with tracer.span("free"):
        pass
    (op, inner, free) = tracer.spans
    assert op[3] is None and op[4] == 7
    assert inner[3] == 0 and inner[4] == 7
    assert free[3] is None and free[4] is None
    assert op[1] <= inner[1] <= inner[2] <= op[2]


def test_call_marks_gone_functions_missing():
    tracer = Tracer()
    assert tracer.call("present", lambda x: x + 1, 1) == 2
    assert tracer.call("gone", None, 1) is None
    assert tracer.call("resigned", lambda: None, 1) is None  # TypeError: new signature
    assert tracer.missing == {"gone", "resigned"}
    assert set(tracer.summary()) == {"present"}
    with pytest.raises(ZeroDivisionError):  # other errors are real failures
        tracer.call("broken", lambda: 1 / 0)
