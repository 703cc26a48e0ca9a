"""Experiments A2/T43 and P54/T55 — the allocation algorithms.

Algorithm 2 ({RC, SI, SSI}, always succeeds) and the Theorem 5.5 variant
({RC, SI}, may report non-existence) run over workload size.  The A2
table reports the robustness checks Algorithm 2 spends (Theorem 4.3's
``O(|T| * levels)`` budget), the kernel rows it builds and the resulting
allocation mixes (visible with ``-s``).
"""

from __future__ import annotations

import pytest

from conftest import PHASE_HEADERS, phase_rows, print_table, timed
from repro.core.allocation import optimal_allocation
from repro.core.context import AnalysisContext
from repro.core.isolation import Allocation, ORACLE_LEVELS, POSTGRES_LEVELS
from repro.core.robustness import check_robustness
from repro.observability import Tracer, use_tracer
from repro.workloads.generator import random_workload


def _cold_optimal_allocation(wl, levels=POSTGRES_LEVELS):
    """The seed Algorithm 2 loop: a fresh conflict index per robustness check.

    Ablation baseline for the shared :class:`AnalysisContext` — identical
    decisions, but every ``check_robustness`` call rebuilds the
    allocation-independent structure from scratch.
    """
    ordered = tuple(sorted(set(levels)))
    current = Allocation.uniform(wl, ordered[-1])
    for tid in wl.tids:
        for level in ordered:
            if level >= current[tid]:
                break
            candidate = current.with_level(tid, level)
            if check_robustness(wl, candidate).robust:
                current = candidate
                break
    return current


#: Calls per row of the A2/T43 table; each time is their median.
A2_REPEATS = 7


def _counted_allocation(wl):
    """Algorithm 2 on a fresh context: ``(optimum, its ContextStats)``."""
    ctx = AnalysisContext(wl)
    return optimal_allocation(wl, context=ctx), ctx.stats


def test_algorithm2_scaling_report(capsys):
    """A2/T43 table: Algorithm 2's probes as |T| grows (Theorem 4.3).

    Refining from ``A_SSI`` probes each transaction at RC and then at SI
    at most, so over {RC, SI, SSI} the checks stay within ``2 * |T|``,
    asserted on every row.
    """
    rows = []
    for transactions in (5, 10, 20, 40):
        wl = random_workload(
            transactions=transactions,
            objects=transactions * 2,
            min_ops=2,
            max_ops=4,
            seed=13,
        )
        (optimum, stats), median = timed(lambda: _counted_allocation(wl), A2_REPEATS)
        assert optimum is not None
        assert stats.checks <= 2 * transactions, "more probes than Theorem 4.3's budget"
        rows.append(
            (
                transactions,
                stats.checks,
                stats.kernel_row_builds,
                "/".join(str(len(optimum.tids_at(level))) for level in POSTGRES_LEVELS),
                f"{median * 1000:.2f}",
            )
        )
    with capsys.disabled():
        print_table(
            f"A2/T43: Algorithm 2 over |T|, median of {A2_REPEATS} calls",
            ["|T|", "checks", "rows built", "RC/SI/SSI", "median (ms)"],
            rows,
        )


@pytest.mark.parametrize("levels_name", ["postgres", "oracle"])
def test_level_class_comparison(levels_name):
    """{RC, SI, SSI} vs {RC, SI} (Theorem 5.5): cost and existence."""
    levels = POSTGRES_LEVELS if levels_name == "postgres" else ORACLE_LEVELS
    wl = random_workload(transactions=14, objects=20, seed=29)
    optimal_allocation(wl, levels)


def test_allocation_mix_report(capsys):
    """Report table: optimal mixes for representative workloads."""
    cases = [
        ("sparse", random_workload(transactions=12, objects=60, seed=1)),
        ("medium", random_workload(transactions=12, objects=12, seed=1)),
        (
            "hotspot",
            random_workload(
                transactions=12, objects=12, hot_objects=2, hot_probability=0.7, seed=1
            ),
        ),
    ]

    rows = []
    for name, wl in cases:
        optimum = optimal_allocation(wl)
        oracle = optimal_allocation(wl, ORACLE_LEVELS)
        rows.append(
            (
                name,
                len(optimum.tids_at("RC")),
                len(optimum.tids_at("SI")),
                len(optimum.tids_at("SSI")),
                "yes" if oracle is not None else "no",
            )
        )
    with capsys.disabled():
        print_table(
            "A2: optimal allocation mixes",
            ["workload", "RC", "SI", "SSI", "{RC,SI} exists"],
            rows,
        )


@pytest.mark.parametrize("mode", ["cold", "context"])
def test_refinement_mode(mode):
    """Algorithm 2 with a fresh index per check vs one shared context."""
    wl = random_workload(transactions=24, objects=30, min_ops=2, max_ops=4, seed=13)

    if mode == "cold":
        result = _cold_optimal_allocation(wl)
    else:
        result = optimal_allocation(wl, context=AnalysisContext(wl))
    assert result is not None


def test_context_speedup_report(capsys):
    """CTX table: context-backed vs cold-start refinement, with counters.

    Asserts identical allocations and exactly one conflict-index build
    for the context-backed run (the acceptance criterion of the shared
    analysis context).
    """
    rows = []
    for transactions in (10, 20, 30):
        wl = random_workload(
            transactions=transactions,
            objects=transactions + 6,
            min_ops=2,
            max_ops=4,
            seed=13,
        )
        cold, cold_s = timed(lambda: _cold_optimal_allocation(wl))
        (warm, stats), warm_s = timed(lambda: _counted_allocation(wl))
        assert warm == cold, "context-backed optimum diverged from seed"
        assert stats.index_builds == 1, "context rebuilt its conflict index"
        rows.append(
            (
                transactions,
                f"{cold_s * 1000:.1f}ms",
                f"{warm_s * 1000:.1f}ms",
                f"{cold_s / warm_s:.1f}x",
                stats.checks,
            )
        )
    with capsys.disabled():
        print_table(
            "CTX: shared analysis context vs cold start (Algorithm 2)",
            ["|T|", "cold", "context", "speedup", "checks"],
            rows,
        )


def test_phase_timing_report(capsys):
    """OBS table: where Algorithm 2 spends its time, per phase.

    Runs the |T|=24 refinement once untraced and once under a live
    :class:`~repro.observability.Tracer`, asserts the allocations are
    identical (tracing must not change behaviour), and prints the
    per-phase breakdown the tracer aggregated — the profiling hook of
    the experiment suite (EXPERIMENTS.md, OBS section).
    """
    wl = random_workload(transactions=24, objects=30, min_ops=2, max_ops=4, seed=13)

    baseline = optimal_allocation(wl, context=AnalysisContext(wl))
    tracer = Tracer()
    with use_tracer(tracer):
        traced = optimal_allocation(wl, context=AnalysisContext(wl))
    assert traced == baseline, "tracing changed the computed optimum"
    with capsys.disabled():
        print_table(
            "OBS: Algorithm 2 phase timings (|T|=24, traced run)",
            PHASE_HEADERS,
            phase_rows(tracer.registry),
        )
    assert "allocation.optimal" in tracer.registry.histograms
    assert "robustness.scan_t1" in tracer.registry.histograms
