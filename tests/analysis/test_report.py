"""Unit tests for repro.analysis.report."""

from repro.analysis.report import (
    allocation_report,
    allocation_summary,
    explain_counterexample,
    robustness_report,
)
from repro.core.allocation import optimal_allocation
from repro.core.isolation import Allocation, ORACLE_LEVELS
from repro.core.robustness import check_robustness
from repro.core.workload import workload


class TestAllocationSummary:
    def test_counts(self):
        alloc = Allocation({1: "RC", 2: "RC", 3: "SSI"})
        assert allocation_summary(alloc) == {"RC": 2, "SI": 0, "SSI": 1}


class TestExplainCounterexample:
    def test_contains_chain_schedule_and_cycle(self, write_skew):
        result = check_robustness(write_skew, Allocation.si(write_skew))
        text = explain_counterexample(result.counterexample)
        assert "Split transaction: T1" in text
        assert "Quadruple chain" in text
        assert "Cycle:" in text
        assert "rw" in text


class TestRobustnessReport:
    def test_robust_case(self, disjoint_pair):
        text = robustness_report(disjoint_pair, Allocation.rc(disjoint_pair))
        assert "ROBUST" in text
        assert "NOT ROBUST" not in text

    def test_non_robust_case(self, write_skew):
        text = robustness_report(write_skew, Allocation.rc(write_skew))
        assert "NOT ROBUST" in text
        assert "Counterexample schedule" in text

    def test_accepts_precomputed_result(self, write_skew):
        result = check_robustness(write_skew, Allocation.rc(write_skew))
        text = robustness_report(write_skew, Allocation.rc(write_skew), result)
        assert "NOT ROBUST" in text


class TestAllocationReport:
    def test_postgres_class(self, write_skew):
        text = allocation_report(write_skew, optimal_allocation(write_skew))
        assert "Optimal robust allocation" in text
        assert "T1: SSI" in text
        assert "2 x SSI" in text

    def test_oracle_class_unallocatable(self, write_skew):
        optimum = optimal_allocation(write_skew, ORACLE_LEVELS)
        text = allocation_report(write_skew, optimum, ORACLE_LEVELS)
        assert "No robust allocation over {RC, SI}" in text

    def test_oracle_class_allocatable(self, lost_update):
        optimum = optimal_allocation(lost_update, ORACLE_LEVELS)
        text = allocation_report(lost_update, optimum, ORACLE_LEVELS)
        assert "T1: SI" in text and "T2: SI" in text
