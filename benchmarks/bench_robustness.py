"""Experiment T33 — Algorithm 1 is polynomial (Theorem 3.3).

The paper proves ``O(|T|^3 * max{|T|^3, k^2 l^2, l^6})``; there is no
testbed to match, so the reproduction target is the *shape*: the scan
the theorem bounds — one kernel row per ``T_1``, each over the triples
through it — stays polynomial in the number of transactions, and
Algorithm 1 handles workload sizes the brute-force baseline
(bench_bruteforce.py) cannot touch.  Only a robust verdict makes the
scan visit every ``T_1``: a non-robust one stops at the first witness.
Also checks the bitset kernel against the reference engines of
:mod:`repro.core.reference`: the cached-components reachability and the
verbatim per-triple transitive closure of the paper's pseudocode.
"""

from __future__ import annotations

import pytest

from conftest import print_table, timed
from repro.analysis.statistics import workload_stats
from repro.core import reference
from repro.core.allocation import optimal_allocation
from repro.core.context import AnalysisContext
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.robustness import is_robust
from repro.workloads.generator import random_workload


def _mixed_allocation(workload, seed: int = 0) -> Allocation:
    import random

    rng = random.Random(seed)
    return Allocation(
        {tid: rng.choice(list(IsolationLevel)) for tid in workload.tids}
    )


#: Calls per row of the T33 table; each time is their median.
T33_REPEATS = 7


def _counted_check(wl, alloc):
    """``is_robust`` on a fresh context: ``(verdict, kernel rows built)``."""
    ctx = AnalysisContext(wl)
    return is_robust(wl, alloc, context=ctx), ctx.stats.kernel_row_builds


def test_algorithm1_scaling_report(capsys):
    """T33 table: the full Algorithm 1 scan as |T| grows.

    Each workload is checked against its robust optimum (computed
    outside the timed calls), so the scan proves robustness and builds
    every ``T_1``'s kernel row: rows built equals |T|, asserted.  The
    mixed columns check a random mixed allocation, which is not robust
    and stops at the first witness after a few rows.
    """
    rows = []
    for transactions in (5, 10, 20, 40, 80, 160):
        wl = random_workload(
            transactions=transactions,
            objects=transactions * 2,
            min_ops=2,
            max_ops=4,
            seed=7,
        )
        optimum = optimal_allocation(wl)
        (robust, built), median = timed(
            lambda: _counted_check(wl, optimum), T33_REPEATS
        )
        assert robust, "the optimum must be robust"
        assert built == transactions, "a robust verdict builds every T_1 row"
        mixed_robust, mixed_built = _counted_check(wl, _mixed_allocation(wl))
        rows.append(
            (
                transactions,
                wl.operation_count(),
                workload_stats(wl).conflict_pairs,
                built,
                f"{median * 1000:.2f}",
                mixed_built,
                "robust" if mixed_robust else "not robust",
            )
        )
    with capsys.disabled():
        print_table(
            f"T33: Algorithm 1 against the robust optimum, median of {T33_REPEATS} calls",
            [
                "|T|",
                "ops",
                "conflicting pairs",
                "rows built",
                "median (ms)",
                "mixed: rows built",
                "mixed: verdict",
            ],
            rows,
        )


@pytest.mark.parametrize("level", ["RC", "SI", "SSI"])
def test_algorithm1_uniform_levels(level):
    """Uniform allocations: SSI tends to short-circuit via condition (6)."""
    wl = random_workload(transactions=20, objects=30, seed=11)
    alloc = Allocation.uniform(wl, level)
    is_robust(wl, alloc)


@pytest.mark.parametrize("method", ["bitset", "components", "paper"])
def test_algorithm1_method_ablation(method):
    """Ablation: bitset kernel vs cached components vs the verbatim loops."""
    wl = random_workload(transactions=16, objects=20, seed=3)
    alloc = Allocation.si(wl)
    expected = is_robust(wl, alloc)
    if method == "bitset":
        result = is_robust(wl, alloc)
    else:
        result = reference.first_witness_spec(wl, alloc, method) is None
    assert result == expected


def test_kernel_speedup_report(capsys):
    """KERNEL table: bitset kernel vs components on the hard cases.

    The acceptance criterion of the bitset engine: identical verdicts and
    allocations (asserted here; bit-identical witnesses are pinned by the
    property suite) at a measured speedup on the two workloads where the
    triple scan dominates — a |T|=80 check against its robust optimum
    (no early exit: every (T_1, T_2, T_m) triple is visited) and a full
    |T|=40 Algorithm 2 run.  Timings are reported, not asserted (CI
    boxes vary), per the suite's conventions.
    """
    rows = []
    # Robust-optimum check at |T|=80: the scan must exhaust every
    # triple to prove robustness — the kernel's best case.
    wl = random_workload(
        transactions=80, objects=160, min_ops=2, max_ops=4, seed=7
    )
    optimum = optimal_allocation(wl)
    assert optimum is not None

    comp, comp_s = timed(
        lambda: reference.first_witness_spec(wl, optimum, "components") is None
    )
    bits, bits_s = timed(lambda: is_robust(wl, optimum, context=AnalysisContext(wl)))
    assert bits == comp, "kernel verdict diverged from components"
    assert bits, "the optimum must be robust"
    rows.append(
        (
            "check |T|=80 (optimum)",
            f"{comp_s * 1000:.1f}ms",
            f"{bits_s * 1000:.1f}ms",
            f"{comp_s / bits_s:.1f}x",
        )
    )

    # Full Algorithm 2 at |T|=40: every refinement probe pays the scan.
    wl = random_workload(
        transactions=40, objects=80, min_ops=2, max_ops=4, seed=13
    )
    (comp_opt, _checks), comp_s = timed(
        lambda: reference.optimal_allocation(wl, engine="components")
    )
    bits_opt, bits_s = timed(lambda: optimal_allocation(wl))
    assert bits_opt == comp_opt, "kernel optimum diverged from components"
    rows.append(
        (
            "optimal_allocation |T|=40",
            f"{comp_s * 1000:.1f}ms",
            f"{bits_s * 1000:.1f}ms",
            f"{comp_s / bits_s:.1f}x",
        )
    )
    with capsys.disabled():
        print_table(
            "KERNEL: bitset kernel vs components (identical results)",
            ["case", "components", "bitset", "speedup"],
            rows,
        )


@pytest.mark.parametrize("contention", ["low", "high"])
def test_algorithm1_contention_sensitivity(contention):
    """Dense conflict graphs stress the operation-level inner loops."""
    hot = {"low": 0, "high": 3}[contention]
    wl = random_workload(
        transactions=24,
        objects=40,
        hot_objects=hot,
        hot_probability=0.8,
        seed=5,
    )
    alloc = Allocation.si(wl)
    is_robust(wl, alloc)


#: Calls per input of the SIZE sweep; each row is their median.
SIZE_REPEATS = 5


def _size_inputs():
    """``(shape, workload)`` of the SIZE sweep, parsed as ``repro allocate``
    would read them from a file."""
    from repro.core.workload import parse_workload
    from repro.workloads.generator import clustered_workload

    shapes = [
        (f"5-txn components ({n // 5})", clustered_workload(
            components=n // 5, per_component=5, objects_per_component=6, seed=7
        ))
        for n in (60, 240, 500, 1000)
    ]
    shapes.append(("10-txn components (100)", clustered_workload(
        components=100, per_component=10, objects_per_component=12, seed=7
    )))
    shapes.extend(
        ("dense", random_workload(
            transactions=n, objects=n, hot_objects=8, hot_probability=0.7, seed=7
        ))
        for n in (40, 80, 160)
    )
    return [(shape, parse_workload(str(wl))) for shape, wl in shapes]


def test_size_sweep_report(capsys):
    """SIZE table: one-shot Algorithm 2 as the workload grows.

    ``optimal_allocation`` on a parsed workload, what ``repro allocate``
    runs, each call on a fresh context; a row is the median of
    ``SIZE_REPEATS`` calls.  The library analyzes a workload as one unit,
    with every kernel row and level list numbered inside its ``T_1``'s
    conflict component, so many small components cost about what they
    cost one by one.  The composition column times the per-component
    optima (``optimal_allocation`` on each component's sub-workload,
    split off outside the timer), and the ratio is one-shot over
    composition.  The optimum must equal the per-component optima,
    composed.
    """
    from repro.core.sharding import conflict_components

    rows = []
    for shape, wl in _size_inputs():
        optimum, median = timed(lambda: optimal_allocation(wl), SIZE_REPEATS)
        parts = [wl.restricted_to(members) for members in conflict_components(wl)]
        optima, composed_median = timed(
            lambda: [optimal_allocation(part) for part in parts], SIZE_REPEATS
        )
        composed = {}
        for part_optimum in optima:
            composed.update(part_optimum.items())
        assert dict(optimum.items()) == composed
        rows.append((shape, len(wl), median, composed_median))
    with capsys.disabled():
        print_table(
            f"SIZE: optimal_allocation, median of {SIZE_REPEATS} calls",
            ["shape", "|T|", "one-shot", "composition", "ratio"],
            [
                (shape, n, f"{one * 1000:.2f}ms", f"{parts * 1000:.2f}ms",
                 f"{one / parts:.2f}")
                for shape, n, one, parts in rows
            ],
        )
