"""The parallel engine returns bit-identical results to the sequential one.

"Bit-identical" concretely: the same robustness verdict, the same first
counterexample (equal chain spec and equal materialized schedule text),
the same counterexample *sequence* from the enumerator, and the same
unique optimal allocation (Proposition 4.2).  The enumeration-ordering
regression below pins this on the paper's own examples and on the
SmallBank/TPC-C program workloads.
"""

import pytest

from repro.core.allocation import optimal_allocation, refine_allocation
from repro.core.context import AnalysisContext
from repro.core.incremental import AllocationManager
from repro.core.isolation import Allocation, IsolationLevel, POSTGRES_LEVELS
from repro.core.robustness import check_robustness, enumerate_counterexamples
from repro.core.workload import workload
from repro.parallel import (
    PARALLEL_AUTO_THRESHOLD,
    check_robustness_parallel,
    resolve_jobs,
)
from repro.workloads.generator import random_workload
from repro.workloads.paper_examples import example26_workload, figure2_workload
from repro.workloads.smallbank import smallbank_workload
from repro.workloads.tpcc import tpcc_workload


def _assert_same_result(seq, par):
    assert seq.robust == par.robust
    if not seq.robust:
        assert seq.counterexample.spec == par.counterexample.spec
        assert str(seq.counterexample.schedule) == str(par.counterexample.schedule)


# ---------------------------------------------------------------------------
# resolve_jobs
# ---------------------------------------------------------------------------


def test_resolve_jobs_default_is_sequential():
    assert resolve_jobs(1, 10_000) == 1


def test_resolve_jobs_explicit_values_are_honoured():
    assert resolve_jobs(4, 2) == 4
    assert resolve_jobs(2, PARALLEL_AUTO_THRESHOLD * 10) == 2


def test_resolve_jobs_auto_stays_sequential_below_threshold():
    assert resolve_jobs(None, PARALLEL_AUTO_THRESHOLD - 1) == 1
    assert resolve_jobs(-1, PARALLEL_AUTO_THRESHOLD - 1) == 1


def test_resolve_jobs_auto_goes_parallel_on_large_workloads():
    assert resolve_jobs(None, PARALLEL_AUTO_THRESHOLD) >= 1


def test_resolve_jobs_rejects_zero():
    with pytest.raises(ValueError):
        resolve_jobs(0, 10)


# ---------------------------------------------------------------------------
# check_robustness equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", list(IsolationLevel))
def test_check_matches_sequential_on_write_skew(write_skew, level):
    alloc = Allocation.uniform(write_skew, level)
    seq = check_robustness(write_skew, alloc)
    par = check_robustness(write_skew, alloc, n_jobs=2)
    _assert_same_result(seq, par)


def test_check_matches_sequential_on_random_workload():
    wl = random_workload(transactions=12, objects=8, min_ops=2, max_ops=4, seed=5)
    for level in IsolationLevel:
        alloc = Allocation.uniform(wl, level)
        _assert_same_result(
            check_robustness(wl, alloc),
            check_robustness(wl, alloc, n_jobs=3),
        )


def test_check_paper_method_is_sequential_only(write_skew):
    alloc = Allocation.uniform(write_skew, IsolationLevel.SI)
    with pytest.raises(ValueError, match="sequential-only"):
        check_robustness(write_skew, alloc, method="paper", n_jobs=2)


def test_check_merges_worker_stats(write_skew):
    ctx = AnalysisContext(write_skew)
    alloc = Allocation.uniform(write_skew, IsolationLevel.SI)
    result = check_robustness_parallel(write_skew, alloc, n_jobs=2, context=ctx)
    assert not result.robust
    assert ctx.stats.checks == 1
    # The worker's scan work (its kernel rows at least) reached the
    # parent's counters through the stats-delta merge.
    assert ctx.stats.kernel_row_builds > 0


# ---------------------------------------------------------------------------
# enumerate_counterexamples ordering regression (n_jobs=1 vs n_jobs=4)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "wl_factory",
    [
        figure2_workload,
        example26_workload,
        lambda: smallbank_workload(transactions=8, seed=3),
        lambda: tpcc_workload(transactions=8, seed=3),
    ],
    ids=["paper-figure2", "paper-example26", "smallbank", "tpcc"],
)
@pytest.mark.parametrize("level", [IsolationLevel.RC, IsolationLevel.SI])
def test_enumerate_ordering_is_stable_across_jobs(wl_factory, level):
    wl = wl_factory()
    alloc = Allocation.uniform(wl, level)
    sequential = [c.spec for c in enumerate_counterexamples(wl, alloc)]
    repeat = [c.spec for c in enumerate_counterexamples(wl, alloc)]
    parallel = [c.spec for c in enumerate_counterexamples(wl, alloc, n_jobs=4)]
    assert sequential == repeat  # stable across runs
    assert sequential == parallel  # identical order, not just identical sets


# ---------------------------------------------------------------------------
# allocation equivalence
# ---------------------------------------------------------------------------


def test_optimal_allocation_matches_sequential():
    wl = random_workload(transactions=14, objects=10, min_ops=2, max_ops=4, seed=11)
    seq = optimal_allocation(wl)
    assert seq == optimal_allocation(wl, n_jobs=2)
    assert seq == optimal_allocation(wl, n_jobs=4)


def test_optimal_allocation_oracle_class_matches_sequential():
    ordered = (IsolationLevel.RC, IsolationLevel.SI)
    robust = workload("R1[a] W1[b]", "R2[c] W2[d]", "R3[a] W3[c]")
    assert optimal_allocation(robust, ordered) == optimal_allocation(
        robust, ordered, n_jobs=2
    )
    skew = workload("R1[x] W1[y]", "R2[y] W2[x]")
    assert optimal_allocation(skew, ordered) is None
    assert optimal_allocation(skew, ordered, n_jobs=2) is None


def test_refine_allocation_matches_sequential():
    wl = random_workload(transactions=12, objects=9, min_ops=2, max_ops=3, seed=2)
    start = Allocation.uniform(wl, IsolationLevel.SSI)
    assert refine_allocation(wl, start, POSTGRES_LEVELS) == refine_allocation(
        wl, start, POSTGRES_LEVELS, n_jobs=2
    )


def test_refine_with_nothing_to_lower_returns_start():
    wl = workload("R1[x] W1[y]", "R2[y] W2[x]")
    start = Allocation.uniform(wl, IsolationLevel.RC)
    assert refine_allocation(wl, start, [IsolationLevel.RC], n_jobs=2) == start


def test_allocation_manager_matches_sequential():
    wl = random_workload(transactions=10, objects=8, min_ops=2, max_ops=3, seed=9)
    seq_mgr = AllocationManager()
    par_mgr = AllocationManager(n_jobs=2)
    for txn in wl:
        assert seq_mgr.add(txn) == par_mgr.add(txn)
    assert seq_mgr.remove(2) == par_mgr.remove(2)
    probe = Allocation.uniform(seq_mgr.workload, IsolationLevel.RC)
    assert seq_mgr.check(probe) == par_mgr.check(probe)


def test_allocation_manager_rejects_parallel_paper_method():
    with pytest.raises(ValueError, match="sequential-only"):
        AllocationManager(method="paper", n_jobs=2)


# ---------------------------------------------------------------------------
# CLI --jobs
# ---------------------------------------------------------------------------


def test_cli_jobs_flag(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "wl.txt"
    path.write_text("T1: R[x] W[y]\nT2: R[y] W[x]\n", encoding="utf-8")
    assert main(["check", str(path), "--uniform", "SSI", "--jobs", "2"]) == 0
    assert main(["allocate", str(path), "--jobs", "2", "--stats"]) == 0
    out = capsys.readouterr().out
    assert "SSI" in out
    assert "checks" in out


def test_cli_jobs_rejects_garbage(tmp_path):
    from repro.cli import main

    path = tmp_path / "wl.txt"
    path.write_text("T1: R[x]\n", encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["check", str(path), "--jobs", "0"])


# ---------------------------------------------------------------------------
# BrokenProcessPool fallback
# ---------------------------------------------------------------------------


@pytest.fixture
def broken_pool(monkeypatch):
    """Make every executor acquisition fail as if the pool died."""
    from concurrent.futures.process import BrokenProcessPool

    import repro.parallel.engine as engine

    def _raise(n_jobs):
        raise BrokenProcessPool("pool died in test")

    monkeypatch.setattr(engine, "_get_executor", _raise)


def test_check_falls_back_to_sequential_on_broken_pool(broken_pool):
    wl = random_workload(transactions=10, objects=8, min_ops=2, max_ops=3, seed=4)
    alloc = Allocation.uniform(wl, IsolationLevel.SI)
    expected = check_robustness(wl, alloc)
    with pytest.warns(RuntimeWarning, match="falling back"):
        result = check_robustness_parallel(wl, alloc, n_jobs=2)
    _assert_same_result(expected, result)


def test_enumerate_falls_back_to_sequential_on_broken_pool(broken_pool):
    wl = random_workload(transactions=8, objects=6, min_ops=2, max_ops=3, seed=4)
    alloc = Allocation.uniform(wl, IsolationLevel.SI)
    expected = [c.spec for c in enumerate_counterexamples(wl, alloc)]
    with pytest.warns(RuntimeWarning, match="falling back"):
        got = [c.spec for c in enumerate_counterexamples(wl, alloc, n_jobs=2)]
    assert got == expected


def test_refine_falls_back_to_sequential_on_broken_pool(broken_pool):
    wl = random_workload(transactions=10, objects=8, min_ops=2, max_ops=3, seed=4)
    start = Allocation.uniform(wl, IsolationLevel.SSI)
    expected = refine_allocation(wl, start, POSTGRES_LEVELS)
    with pytest.warns(RuntimeWarning, match="falling back"):
        got = refine_allocation(wl, start, POSTGRES_LEVELS, n_jobs=2)
    assert got == expected


def test_fallback_result_still_traced(broken_pool):
    from repro.observability import Tracer, use_tracer

    wl = random_workload(transactions=8, objects=6, min_ops=2, max_ops=3, seed=4)
    alloc = Allocation.uniform(wl, IsolationLevel.SI)
    tracer = Tracer()
    with pytest.warns(RuntimeWarning):
        with use_tracer(tracer):
            check_robustness_parallel(wl, alloc, n_jobs=2)
    # Both the degraded parallel span and the sequential re-run's own
    # span are recorded; the former carries the fallback marker.
    checks = [s for s in tracer.spans if s.name == "robustness.check"]
    assert len(checks) == 2
    assert any(s.attrs.get("fallback") is True for s in checks)


# ---------------------------------------------------------------------------
# chunking with more workers than transactions (regression pin)
# ---------------------------------------------------------------------------


def test_contiguous_chunks_more_chunks_than_items_submits_no_empty_chunks():
    """``n_chunks > len(items)`` degrades to one chunk per item.

    ``_contiguous_chunks`` clamps ``n_chunks`` to ``len(items)`` before
    the ceil-division sizing, so a ``--jobs 8`` run over three
    transactions submits exactly three singleton chunks — never an empty
    chunk (an empty chunk would make a worker scan zero candidates and,
    worse, make find-first merging consider a vacuous result).
    """
    from repro.parallel.engine import _contiguous_chunks, _round_robin_chunks

    chunks = _contiguous_chunks([1, 2, 3], 8)
    assert chunks == [(1,), (2,), (3,)]
    assert all(chunks)  # no empty chunk
    assert _contiguous_chunks([], 8) == []
    rr = _round_robin_chunks([1, 2, 3], 8)
    assert rr == [(1,), (2,), (3,)]
    assert all(rr)


def test_more_jobs_than_transactions_matches_sequential():
    """``--jobs 8`` on a three-transaction workload: same verdict/spec."""
    wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[z] W3[z]")
    alloc = Allocation.uniform(wl, IsolationLevel.SI)
    seq = check_robustness(wl, alloc)
    par = check_robustness(wl, alloc, n_jobs=8)
    _assert_same_result(seq, par)
    assert optimal_allocation(wl, n_jobs=8) == optimal_allocation(wl)


# ---------------------------------------------------------------------------
# whole-shard dispatch (component sharding)
# ---------------------------------------------------------------------------


def test_shard_dispatch_matches_sequential_sharded():
    """Whole-shard pool dispatch matches both sequential paths."""
    from repro.workloads.generator import clustered_workload

    wl = clustered_workload(components=3, per_component=4, seed=2)
    for level in (IsolationLevel.RC, IsolationLevel.SI):
        alloc = Allocation.uniform(wl, level)
        one_unit = check_robustness(wl, alloc, context=AnalysisContext(wl))
        seq = check_robustness(wl, alloc)
        par = check_robustness(wl, alloc, n_jobs=2)
        _assert_same_result(one_unit, seq)
        _assert_same_result(one_unit, par)


def test_shard_dispatch_falls_back_on_broken_pool(broken_pool):
    from repro.workloads.generator import clustered_workload

    wl = clustered_workload(components=3, per_component=3, seed=2)
    alloc = Allocation.uniform(wl, IsolationLevel.SI)
    expected = check_robustness(wl, alloc, context=AnalysisContext(wl))
    with pytest.warns(RuntimeWarning, match="falling back"):
        got = check_robustness(wl, alloc, n_jobs=2)
    assert expected.robust == got.robust
    if not expected.robust:
        assert expected.counterexample.spec == got.counterexample.spec
