"""Human-readable robustness and allocation reports.

These back the CLI (``repro check`` / ``repro allocate`` / ``repro
report``) and the examples: they turn the algorithmic results into the
kind of output a DBA acting on an allocation would want to read.
``--stats`` adds the analysis counters (:func:`analysis_stats_report`)
and, under ``--trace``, the per-phase timings of the run
(:func:`phase_timing_report`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.allocation import optimal_allocation
from ..core.context import ContextStats
from ..core.isolation import Allocation, IsolationLevel, POSTGRES_LEVELS
from ..core.robustness import Counterexample, RobustnessResult, check_robustness
from ..core.serialization import SerializationGraph
from ..core.workload import Workload
from ..observability import MetricsRegistry
from .render import render_schedule, render_serialization_graph, render_workload


def allocation_summary(allocation: Allocation) -> Dict[str, int]:
    """Counts of transactions per isolation level."""
    counts = {level.name: 0 for level in IsolationLevel}
    for _tid, level in allocation.items():
        counts[level.name] += 1
    return counts


def explain_counterexample(counterexample: Counterexample) -> str:
    """A step-by-step explanation of a non-robustness witness.

    Shows the quadruple chain, the split-schedule timeline and the cycle in
    the serialization graph — everything Theorem 3.2 promises.
    """
    from .render import render_split_schedule

    spec = counterexample.spec
    schedule = counterexample.schedule
    graph = SerializationGraph(schedule)
    lines = [
        f"Split transaction: T{spec.split_tid} (split after {spec.b1})",
        f"Quadruple chain C: {spec}",
        "",
        "Split-schedule shape (Figure 1):",
        render_split_schedule(spec, schedule.workload),
        "",
        "Counterexample schedule (allowed under the allocation, not serializable):",
        render_schedule(schedule),
        "",
        "Serialization graph (note the cycle):",
        render_serialization_graph(graph),
    ]
    cycle = graph.find_cycle()
    if cycle is not None:
        arrows = " -> ".join(f"T{quad.tid_i}" for quad in cycle)
        closing = f"T{cycle[0].tid_i}"
        lines.append("")
        lines.append(f"Cycle: {arrows} -> {closing}")
    return "\n".join(lines)


def robustness_report(
    workload: Workload,
    allocation: Allocation,
    result: Optional[RobustnessResult] = None,
) -> str:
    """A full report on robustness of a workload against an allocation."""
    if result is None:
        result = check_robustness(workload, allocation)
    lines = [
        "Workload:",
        render_workload(workload),
        "",
        f"Allocation: {allocation}",
        "",
    ]
    if result.robust:
        lines.append(
            "ROBUST: every schedule allowed under this allocation is"
            " conflict serializable."
        )
    else:
        lines.append("NOT ROBUST: a counterexample schedule exists.")
        lines.append("")
        assert result.counterexample is not None
        lines.append(explain_counterexample(result.counterexample))
    return "\n".join(lines)


def full_report(workload: Workload) -> str:
    """Everything a DBA wants on one page.

    Contention statistics, robustness against each uniform allocation
    (with named anomalies for the failures), and the optimal allocations
    over both level classes.
    """
    from .anomalies import classify_counterexample
    from .statistics import workload_stats
    from ..core.isolation import ORACLE_LEVELS

    lines = [
        "Workload:",
        render_workload(workload),
        "",
        f"Profile: {workload_stats(workload)}",
        "",
        "Uniform allocations:",
    ]
    for level in IsolationLevel:
        alloc = Allocation.uniform(workload, level)
        result = check_robustness(workload, alloc)
        if result.robust:
            lines.append(f"  A_{level.name}: robust")
        else:
            anomaly = classify_counterexample(result.counterexample)
            lines.append(f"  A_{level.name}: NOT robust — {anomaly}")
    lines.append("")
    for class_name, levels in (
        ("{RC, SI, SSI}", POSTGRES_LEVELS),
        ("{RC, SI}", ORACLE_LEVELS),
    ):
        optimum = optimal_allocation(workload, levels)
        if optimum is None:
            lines.append(f"Optimal over {class_name}: none exists")
        else:
            lines.append(f"Optimal over {class_name}: {optimum}")
    return "\n".join(lines)


def analysis_stats_report(stats: ContextStats) -> str:
    """Render the :class:`~repro.core.context.ContextStats` counters."""
    lines = ["Analysis statistics:"]
    for name, value in stats.as_dict().items():
        lines.append(f"  {name.replace('_', ' ')}: {value}")
    return "\n".join(lines)


def phase_timing_report(registry: "MetricsRegistry") -> str:
    """Render a tracer's :class:`~repro.observability.MetricsRegistry`.

    One line per span name (count / total / mean / max, in milliseconds)
    plus the event counters — the per-phase breakdown ``--stats`` prints
    when tracing is on.
    """
    lines = ["Phase timings:"]
    histograms = registry.histograms
    if not histograms:
        lines.append("  (no spans recorded)")
    else:
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            stat = histograms[name]
            lines.append(
                f"  {name:<{width}}  count={stat.count:<6}"
                f" total={stat.total * 1e3:10.3f}ms"
                f" mean={stat.mean * 1e3:9.3f}ms"
                f" max={stat.max * 1e3:9.3f}ms"
            )
    counters = registry.counters
    if counters:
        lines.append("Event counters:")
        for name in sorted(counters):
            lines.append(f"  {name}: {counters[name]}")
    return "\n".join(lines)


def allocation_report(
    workload: Workload,
    optimum: Optional[Allocation],
    levels: Sequence[IsolationLevel] = POSTGRES_LEVELS,
) -> str:
    """A report on the optimal robust allocation of a workload.

    ``optimum`` is what :func:`~repro.core.allocation.optimal_allocation`
    returned for ``levels``: ``None`` when no robust allocation over them
    exists.  The caller runs Algorithm 2, so it can read the optimum (and
    its context's counters) without running it again.
    """
    lines = ["Workload:", render_workload(workload), ""]
    class_name = "{" + ", ".join(level.name for level in sorted(set(levels))) + "}"
    if optimum is None:
        lines.append(
            f"No robust allocation over {class_name} exists"
            " (the workload is not robust against A_SI; see Proposition 5.4)."
        )
        return "\n".join(lines)
    lines.append(f"Optimal robust allocation over {class_name}:")
    for tid, level in optimum.items():
        lines.append(f"  T{tid}: {level.name}")
    counts = allocation_summary(optimum)
    summary = ", ".join(f"{count} x {name}" for name, count in counts.items() if count)
    lines.append(f"Summary: {summary}")
    return "\n".join(lines)
