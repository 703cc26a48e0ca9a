"""Shared helpers for the experiment suite.

Run with::

    pytest benchmarks/ -s

``-s`` shows the experiment tables (paper-shape summaries) the tests
print.  Every module maps to an experiment id in DESIGN.md /
EXPERIMENTS.md, and every test is a plain test: the assertions inside
the bodies are the check, and CI runs the whole directory.  The tables
report shapes as machine-independent counts (kernel rows built, checks,
interleavings and schedules enumerated); a wall time beside them is for
reading only and never asserted.  Timing claims come from the calibrated
harness in ``bench/``, not from this suite.
"""

from __future__ import annotations

import time


def print_table(title, headers, rows):
    """Print an aligned experiment table (visible with ``pytest -s``)."""
    widths = [
        max(len(str(h)), *(len(str(row[i])) for row in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def timed(call, repeats=1):
    """Run ``call()`` ``repeats`` times: ``(last result, median seconds)``.

    The median is reported beside a table's counts, never asserted.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    times.sort()
    return result, times[len(times) // 2]


def phase_rows(registry):
    """A tracer registry as ``print_table`` rows, one per span name.

    The profiling hook of the benches: run the workload under a
    :class:`repro.observability.Tracer` and feed ``tracer.registry`` here
    to see where the time went (columns: phase, count, total, mean, max).
    """
    rows = []
    for name in sorted(registry.histograms):
        stat = registry.histograms[name]
        rows.append(
            (
                name,
                stat.count,
                f"{stat.total * 1e3:.2f}ms",
                f"{stat.mean * 1e3:.3f}ms",
                f"{stat.max * 1e3:.3f}ms",
            )
        )
    return rows


PHASE_HEADERS = ["phase", "count", "total", "mean", "max"]
