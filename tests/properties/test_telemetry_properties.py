"""Hypothesis: the streaming telemetry aggregates keep their contracts.

Three promises the live service's quantiles stand on:

* :meth:`StreamingHistogram.merge` is associative and commutative, and
  merging any partition of a value stream equals recording the stream
  directly — partitioning and merge order cannot change what
  ``/metrics`` reports;
* a quantile estimate brackets the exact nearest-rank empirical
  quantile within one bucket's relative error (the ``GROWTH`` factor),
  over the histogram's documented value range;
* a registry assembled by absorbing other tracers holds the same
  histograms as one whose tracer recorded every span itself — the
  daemon's ``--trace`` tracer, which absorbs every request's tracer,
  reports the same quantiles as direct recording.

:class:`WindowedSeries` rides along with its own order-independence
property: the per-window series is a function of the event multiset.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    MetricsRegistry,
    SpanRecord,
    StreamingHistogram,
    Tracer,
    WindowedSeries,
)
from repro.observability.telemetry import GROWTH

#: Values inside the histogram's loggable range (the index clamp spans
#: roughly 1e-17..1e16 at ``GROWTH``), plus exact zeros, which
#: take the dedicated zero bucket.
_VALUES = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
    ),
    max_size=80,
)

_SPAN_NAMES = ("service.add", "service.check", "shard.scan")


def _hist(values):
    hist = StreamingHistogram()
    for value in values:
        hist.record(value)
    return hist


def _assert_same(a: StreamingHistogram, b: StreamingHistogram) -> None:
    """Histogram equality up to float-summation order in ``total``."""
    assert a.count == b.count
    assert a.bucket_counts() == b.bucket_counts()
    assert a.min == b.min and a.max == b.max
    assert math.isclose(a.total, b.total, rel_tol=1e-9, abs_tol=1e-12)
    assert a.quantiles() == b.quantiles()


class TestMergeAlgebra:
    @given(_VALUES, _VALUES)
    @settings(max_examples=100, deadline=None)
    def test_merge_commutative(self, xs, ys):
        ab = _hist(xs)
        ab.merge(_hist(ys))
        ba = _hist(ys)
        ba.merge(_hist(xs))
        _assert_same(ab, ba)

    @given(_VALUES, _VALUES, _VALUES)
    @settings(max_examples=100, deadline=None)
    def test_merge_associative(self, xs, ys, zs):
        left = _hist(xs)
        left.merge(_hist(ys))
        left.merge(_hist(zs))
        bc = _hist(ys)
        bc.merge(_hist(zs))
        right = _hist(xs)
        right.merge(bc)
        _assert_same(left, right)

    @given(_VALUES, st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition_merge_equals_direct(self, values, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(values)))
        merged = _hist(values[:cut])
        merged.merge(_hist(values[cut:]))
        _assert_same(merged, _hist(values))

    @given(_VALUES)
    @settings(max_examples=50, deadline=None)
    def test_merge_empty_is_identity(self, values):
        hist = _hist(values)
        hist.merge(StreamingHistogram())
        _assert_same(hist, _hist(values))


class TestQuantileBracketing:
    @given(
        _VALUES.filter(bool),
        st.floats(min_value=0.0, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_estimate_brackets_exact_nearest_rank(self, values, q):
        hist = _hist(values)
        estimate = hist.quantile(q)
        rank = 1 if q == 0.0 else max(1, math.ceil(q * len(values)))
        exact = sorted(values)[rank - 1]
        assert exact <= estimate * (1.0 + 1e-12)
        assert estimate <= exact * GROWTH * (1.0 + 1e-12)

    @given(_VALUES.filter(bool))
    @settings(max_examples=50, deadline=None)
    def test_extreme_quantiles(self, values):
        hist = _hist(values)
        assert hist.quantile(0.0) == min(values)
        top = hist.quantile(1.0)
        assert max(values) <= top <= max(values) * GROWTH * (1.0 + 1e-12)


def _tracers(partition):
    """One tracer per part, holding its (name, duration) spans."""
    out = []
    for part in partition:
        tracer = Tracer()
        tracer.spans.extend(
            SpanRecord(i + 1, None, name, 0.0, duration)
            for i, (name, duration) in enumerate(part)
        )
        out.append(tracer)
    return out


@st.composite
def _span_partitions(draw):
    spans = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_SPAN_NAMES),
                st.floats(min_value=1e-7, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
            ),
            max_size=40,
        )
    )
    n_parts = draw(st.integers(min_value=1, max_value=4))
    parts = [[] for _ in range(n_parts)]
    for i, span in enumerate(spans):
        parts[i % n_parts].append(span)
    return spans, parts


class TestWorkerMergeEquivalence:
    @given(_span_partitions())
    @settings(max_examples=60, deadline=None)
    def test_absorbed_batches_equal_direct_recording(self, case):
        spans, parts = case
        direct = MetricsRegistry()
        for name, duration in spans:
            direct.record(name, duration)
        parent = Tracer()
        for child in _tracers(parts):
            parent.absorb(child)
        assert set(parent.registry.histograms) == set(direct.histograms)
        for name, hist in direct.histograms.items():
            _assert_same(parent.registry.histograms[name], hist)

    @given(_span_partitions())
    @settings(max_examples=60, deadline=None)
    def test_registry_merge_equals_direct_recording(self, case):
        spans, parts = case
        direct = MetricsRegistry()
        for name, duration in spans:
            direct.record(name, duration)
        merged = MetricsRegistry()
        for part in reversed(parts):  # merge order must not matter
            worker = MetricsRegistry()
            for name, duration in part:
                worker.record(name, duration)
            merged.merge(worker)
        assert set(merged.histograms) == set(direct.histograms)
        for name, hist in direct.histograms.items():
            _assert_same(merged.histograms[name], hist)


class TestWindowedSeriesOrder:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False),
                st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
            ),
            max_size=50,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_series_is_order_free(self, events, rng):
        ordered = WindowedSeries(width=2.0, windows=32)
        for t, value in events:
            ordered.record(t, value)
        shuffled_events = list(events)
        rng.shuffle(shuffled_events)
        shuffled = WindowedSeries(width=2.0, windows=32)
        for t, value in shuffled_events:
            shuffled.record(t, value)
        assert ordered.total_count == shuffled.total_count
        a, b = ordered.series(), shuffled.series()
        assert [w["start"] for w in a] == [w["start"] for w in b]
        assert [w["count"] for w in a] == [w["count"] for w in b]
        for wa, wb in zip(a, b):
            assert math.isclose(wa["sum"], wb["sum"],
                                rel_tol=1e-9, abs_tol=1e-12)
