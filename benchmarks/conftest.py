"""Shared helpers for the benchmark suite.

Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the experiment tables (paper-shape summaries) each bench
prints alongside the pytest-benchmark timing table.  Every module maps to
an experiment id in DESIGN.md / EXPERIMENTS.md.  ``--benchmark-disable``
(the CI smoke) runs every bench body once untimed: the assertions inside
the benches are the check.  Timing claims come from the calibrated
harness in ``bench/``, not from this suite.
"""

from __future__ import annotations


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
