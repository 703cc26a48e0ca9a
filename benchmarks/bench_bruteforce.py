"""Experiment BF — Algorithm 1 vs the exhaustive baseline.

There is no evaluation section to copy numbers from; the claim under test
is the reason Theorem 3.3 matters: deciding robustness by enumerating
schedules explodes combinatorially (the interleaving space is a
multinomial coefficient), while Algorithm 1 stays flat.  Expected shape:
brute force walks every interleaving of a robust workload, a count that
multiplies with each added transaction, while Algorithm 1 builds one
kernel row per transaction; both always agree.
"""

from __future__ import annotations

from conftest import print_table, timed
from repro.core.context import AnalysisContext
from repro.core.isolation import Allocation
from repro.core.robustness import is_robust
from repro.enumeration import brute_force_check, count_interleavings
from repro.workloads.generator import random_workload


def _workload(transactions: int):
    return random_workload(
        transactions=transactions,
        objects=4,
        min_ops=1,
        max_ops=2,
        seed=17,
    )


def test_crossover_report(capsys):
    """BF table: the interleaving space brute force walks, against the
    kernel rows Algorithm 1 builds, on the same inputs.

    Both decide every input once and must agree.  A robust verdict
    means brute force checked every interleaving, asserted against the
    multinomial count.
    """
    rows = []
    for transactions in (2, 3, 4):
        wl = _workload(transactions)
        alloc = Allocation.si(wl)
        interleavings = count_interleavings(wl)
        bf, bf_s = timed(lambda: brute_force_check(wl, alloc))
        ctx = AnalysisContext(wl)
        fast, fast_s = timed(lambda: is_robust(wl, alloc, context=ctx))
        assert fast == bf.robust
        if bf.robust:
            assert bf.schedules_checked == interleavings
        rows.append(
            (
                transactions,
                wl.operation_count(),
                interleavings,
                bf.schedules_checked,
                bf.schedules_allowed,
                ctx.stats.kernel_row_builds,
                "robust" if fast else "not robust",
                f"{bf_s * 1e3:.2f}",
                f"{fast_s * 1e3:.2f}",
                f"{bf_s / fast_s:.0f}x" if fast_s else "-",
            )
        )
    with capsys.disabled():
        print_table(
            "BF: brute force vs Algorithm 1 (A_SI)",
            [
                "|T|",
                "ops",
                "interleavings",
                "schedules_checked",
                "schedules_allowed",
                "alg1 rows built",
                "verdict",
                "brute (ms)",
                "alg1 (ms)",
                "speedup",
            ],
            rows,
        )
