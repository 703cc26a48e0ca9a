#!/usr/bin/env python3
"""Watch robustness (and its absence) on a live MVCC engine.

Run with::

    python examples/mvcc_simulation.py

Executes the write-skew workload on the library's multiversion engine
under different allocations and audits every execution against the formal
semantics: traces under non-robust allocations eventually produce
non-serializable histories; traces under the optimal allocation never do.
Every execution runs on the discrete-event simulator: the audits at its
exploration setting, one session per transaction, and the throughput runs
at its defaults.
"""

from repro import Allocation, is_conflict_serializable, optimal_allocation, workload
from repro.core.allowed import allowed_under
from repro.core.context import AnalysisContext
from repro.mvcc import (
    SimConfig,
    exploration_config,
    simulate_workload,
    trace_to_schedule,
)
from repro.mvcc.simulator import replicate_workload


def audit(wl, alloc, label, seeds=20):
    """Run many interleavings; report anomalies and abort counts."""
    anomalies = 0
    aborts = 0
    for seed in range(seeds):
        trace, stats = simulate_workload(
            wl, alloc, exploration_config(len(wl), seed=seed)
        )
        schedule = trace_to_schedule(trace, wl)
        # Engine executions are always *allowed* under their allocation...
        report = allowed_under(schedule, alloc)
        assert report.allowed, report
        # ...but only robust allocations guarantee serializability.
        anomalies += not is_conflict_serializable(schedule)
        aborts += stats.total_aborts
    print(
        f"  {label:22s} {seeds} runs: "
        f"{anomalies} non-serializable, {aborts} aborts"
    )
    return anomalies


def main() -> None:
    skew = workload("R1[x] W1[y]", "R2[y] W2[x]")
    print("Write skew on the MVCC engine:")
    rc_anomalies = audit(skew, Allocation.rc(skew), "A_RC (not robust)")
    si_anomalies = audit(skew, Allocation.si(skew), "A_SI (not robust)")
    ssi_anomalies = audit(skew, Allocation.ssi(skew), "A_SSI (robust)")
    assert rc_anomalies > 0 or si_anomalies > 0
    assert ssi_anomalies == 0

    # A contended read-modify-write workload: SI pays first-committer-wins
    # aborts; RC just waits (footnote 1 of the paper).
    hot = workload(*[f"R{i}[hot] W{i}[hot]" for i in range(1, 7)])
    print("\nHot-object read-modify-write storm (6 transactions, 1 object):")
    for level in ("RC", "SI"):
        total_aborts = 0
        sim_time = 0.0
        commits = 0
        for seed in range(10):
            _, stats = simulate_workload(
                hot,
                Allocation.uniform(hot, level),
                SimConfig(sessions=len(hot), seed=seed),
            )
            total_aborts += stats.total_aborts
            sim_time += stats.sim_time
            commits += stats.commits
        print(
            f"  {level}: {commits} commits, {total_aborts} aborts,"
            f" {commits / sim_time:.3f} commits per unit of simulated time"
        )

    # Algorithm 2's optimum: serializability at the lowest cost.
    optimum = optimal_allocation(hot, context=AnalysisContext(hot))
    print(f"\nOptimal allocation for the storm: {optimum}")
    anomalies = audit(hot, optimum, "optimal (robust)", seeds=10)
    assert anomalies == 0

    # An instance stream under simulated time: throughput, abort rates
    # and latency.  50 instances of each storm transaction, optimal vs
    # all-SSI.
    print("\nDiscrete-event run of the storm (300 instances, 6 sessions):")
    config = SimConfig(sessions=6, seed=0)
    for label, alloc in (("optimal", optimum), ("all-SSI", Allocation.ssi(hot))):
        trace, stats = simulate_workload(hot, alloc, config, repeat=50)
        assert stats.commits == 50 * len(hot)
        latency = stats.latency_percentiles()
        print(
            f"  {label:8s} throughput={stats.throughput:.3f}"
            f" abort_rate={100 * stats.abort_rate:.1f}%"
            f" p50={latency['p50']:.1f} p99={latency['p99']:.1f}"
        )
        # Committed simulator traces stay allowed under the allocation
        # (Definition 2.4), instance stream included.
        instances, inst_alloc, _ = replicate_workload(hot, alloc, repeat=50)
        assert allowed_under(trace_to_schedule(trace, instances), inst_alloc).allowed


if __name__ == "__main__":
    main()
