"""Integration tests crossing all layers of the library.

Each scenario drives the full pipeline a user would: workload -> decide
robustness -> compute the optimal allocation -> execute on the MVCC
engine -> audit the execution against the formal semantics.
"""

import pytest

from repro import (
    Allocation,
    IsolationLevel,
    check_robustness,
    is_conflict_serializable,
    is_robust,
    optimal_allocation,
    workload,
)
from repro.core.allowed import allowed_under
from repro.enumeration import brute_force_check
from repro.mvcc import exploration_config, simulate_workload, trace_to_schedule
from repro.workloads.smallbank import si_anomaly_triple
from repro.workloads.tpcc import tpcc_workload


class TestFullPipelineWriteSkew:
    def test_detect_allocate_execute(self, write_skew):
        # 1. The skew is unsafe below SSI.
        assert not is_robust(write_skew, Allocation.si(write_skew))
        # 2. Algorithm 2 prescribes SSI everywhere.
        optimum = optimal_allocation(write_skew)
        assert optimum == Allocation.ssi(write_skew)
        # 3. Executions under the optimum are serializable across seeds.
        for seed in range(10):
            trace, _ = simulate_workload(
                write_skew, optimum, exploration_config(len(write_skew), seed=seed)
            )
            schedule = trace_to_schedule(trace, write_skew)
            assert is_conflict_serializable(schedule)

    def test_unsafe_allocation_observably_anomalous(self, write_skew):
        """Some SI execution of the skew really is non-serializable."""
        anomalies = 0
        for seed in range(20):
            trace, _ = simulate_workload(
                write_skew,
                Allocation.si(write_skew),
                exploration_config(len(write_skew), seed=seed),
            )
            schedule = trace_to_schedule(trace, write_skew)
            assert allowed_under(schedule, Allocation.si(write_skew)).allowed
            anomalies += not is_conflict_serializable(schedule)
        assert anomalies > 0


class TestFullPipelineSmallBank:
    def test_anomaly_triple(self):
        wl = si_anomaly_triple()
        result = check_robustness(wl, Allocation.si(wl))
        assert not result.robust
        # The algorithmic witness agrees with brute force.
        assert not brute_force_check(wl, Allocation.si(wl)).robust
        # The optimum keeps the read-modify-writers low.
        optimum = optimal_allocation(wl)
        assert is_robust(wl, optimum)
        levels = dict(optimum.items())
        assert IsolationLevel.SSI in levels.values()
        assert optimum < Allocation.ssi(wl) or optimum == Allocation.ssi(wl)

    def test_optimum_execution_audit(self):
        wl = si_anomaly_triple()
        optimum = optimal_allocation(wl)
        for seed in range(10):
            trace, _ = simulate_workload(
                wl, optimum, exploration_config(len(wl), seed=seed)
            )
            schedule = trace_to_schedule(trace, wl)
            assert allowed_under(schedule, optimum).allowed
            assert is_conflict_serializable(schedule)


class TestFullPipelineTpcc:
    def test_tpcc_si_pipeline(self):
        wl = tpcc_workload(8, seed=1)
        a_si = Allocation.si(wl)
        assert is_robust(wl, a_si)
        for seed in range(5):
            trace, stats = simulate_workload(
                wl, a_si, exploration_config(len(wl), seed=seed)
            )
            assert stats.commits == len(wl)
            schedule = trace_to_schedule(trace, wl)
            assert is_conflict_serializable(schedule)

    def test_tpcc_optimal_uses_lower_levels(self):
        wl = tpcc_workload(8, seed=1)
        optimum = optimal_allocation(wl)
        summary = {level for _tid, level in optimum.items()}
        assert IsolationLevel.SSI not in summary  # robust vs A_SI already
        assert IsolationLevel.RC in summary       # many programs can drop


class TestMixedScenario:
    def test_hetero_allocation_beats_uniform(self):
        """A workload where the optimum is genuinely mixed."""
        wl = workload(
            "R1[x] W1[y]",   # skew pair needs SSI
            "R2[y] W2[x]",
            "R3[p] W3[p]",   # private RMW: RC suffices? (lost update -> SI)
            "R4[q]",         # read-only on private data: RC
        )
        optimum = optimal_allocation(wl)
        assert optimum[1] is IsolationLevel.SSI
        assert optimum[2] is IsolationLevel.SSI
        assert optimum[3] is IsolationLevel.RC  # no second writer on p
        assert optimum[4] is IsolationLevel.RC

    def test_report_pipeline(self, capsys):
        from repro.analysis.report import allocation_report, robustness_report

        wl = workload("R1[x] W1[y]", "R2[y] W2[x]")
        print(robustness_report(wl, Allocation.rc(wl)))
        print(allocation_report(wl, optimal_allocation(wl)))
        out = capsys.readouterr().out
        assert "NOT ROBUST" in out and "Optimal robust allocation" in out
