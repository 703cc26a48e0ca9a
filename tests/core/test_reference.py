"""Unit tests for repro.core.reference, the test-oracle engines.

Also pins the one door to them on the production API,
``check_robustness(..., method=...)``, and the boundary that keeps the
module off every production path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import reference
from repro.core.allowed import is_allowed
from repro.core.context import AnalysisContext, ContextStats
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.robustness import check_robustness
from repro.core.workload import WorkloadError, workload
from repro.workloads.generator import clustered_workload
from repro.workloads.paper_examples import (
    example26_workload,
    example52_workload,
    figure2_workload,
)

SRC = Path(__file__).resolve().parents[2] / "src"


class TestStructure:
    """A call builds a conflict index per component, and each ``T_1``'s
    oracle once; candidates stay inside ``T_1``'s component."""

    def test_oracle_cached_per_t1(self, write_skew):
        ref = reference._Reference(write_skew, "components")
        t1 = write_skew[1]
        first = ref.oracle(t1)
        assert ref.oracle(t1) is first

    def test_candidates_match_methods(self, write_skew):
        t1 = write_skew[1]
        for engine in reference.ENGINES:
            ref = reference._Reference(write_skew, engine)
            assert [t.tid for t in ref.candidates(t1)] == [2]

    def test_candidates_restrict_to_conflicting(self):
        # T3 conflicts with T2 (on x) but not with T1: it shares T1's
        # component without being a ``components`` candidate.
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[x]")
        t1 = wl[1]
        paper = reference._Reference(wl, "paper")
        components = reference._Reference(wl, "components")
        assert [t.tid for t in paper.candidates(t1)] == [2, 3]
        assert [t.tid for t in components.candidates(t1)] == [2]

    def test_candidates_stay_in_the_component(self):
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[q]")
        ref = reference._Reference(wl, "paper")
        assert [t.tid for t in ref.candidates(wl[1])] == [2]
        assert ref.index_of[1].tids == (1, 2)
        assert ref.index_of[3].tids == (3,)


class TestInputs:
    def test_unknown_engine_rejected(self, write_skew):
        with pytest.raises(ValueError, match="unknown engine 'bitset'"):
            reference.survey(write_skew, Allocation.si(write_skew), "bitset")

    def test_allocation_must_cover(self, write_skew):
        with pytest.raises(WorkloadError):
            reference.first_witness_spec(write_skew, Allocation({1: "RC"}), "paper")

    def test_delta_tid_must_exist(self, write_skew):
        with pytest.raises(WorkloadError, match="no transaction with id 9"):
            reference.first_witness_spec(
                write_skew, Allocation.si(write_skew), "components", delta_tid=9
            )

    def test_empty_level_class_rejected(self, write_skew):
        with pytest.raises(ValueError):
            reference.optimal_allocation(write_skew, ())


class TestAlgorithm2:
    def test_write_skew_counts_every_probe(self, write_skew):
        # T1: RC and SI fail; T2: RC and SI fail — four probes.
        optimum, checks = reference.optimal_allocation(write_skew)
        assert str(optimum) == "T1:SSI, T2:SSI"
        assert checks == 4

    def test_unallocatable_without_ssi(self, write_skew):
        levels = (IsolationLevel.RC, IsolationLevel.SI)
        assert reference.optimal_allocation(write_skew, levels, "paper") == (None, 1)


DOOR_WORKLOADS = {
    "figure2": figure2_workload,
    "example26": example26_workload,
    "example52": example52_workload,
    "clustered": lambda: clustered_workload(
        components=4, per_component=4, objects_per_component=5, seed=3
    ),
}


def _allocations(wl):
    yield from (Allocation.uniform(wl, level) for level in IsolationLevel)
    levels = sorted(IsolationLevel)
    yield Allocation({tid: levels[tid % 3] for tid in wl.tids})


@pytest.mark.parametrize("engine", reference.ENGINES)
@pytest.mark.parametrize("name", sorted(DOOR_WORKLOADS))
def test_door_returns_the_reference_spec_and_builds_nothing(name, engine):
    """``check_robustness(method=m)`` answers from the reference engine.

    Its spec is the reference's, which is the bitset verdict and spec;
    the counterexample is materialized as on the bitset path; and the
    context passed in is only checked: it holds the one index built
    with it and nothing else.
    """
    wl = DOOR_WORKLOADS[name]()
    for alloc in _allocations(wl):
        ctx = AnalysisContext(wl)
        result = check_robustness(wl, alloc, method=engine, context=ctx)
        expected = reference.first_witness_spec(wl, alloc, engine)
        bitset = check_robustness(wl, alloc)
        assert result.robust == (expected is None) == bitset.robust
        if not result.robust:
            assert result.counterexample.spec == expected
            assert expected == bitset.counterexample.spec
            assert result.counterexample.allocation == alloc
            assert is_allowed(result.counterexample.schedule, alloc)
        assert ctx.stats == ContextStats(index_builds=1), ctx.stats


def test_door_checks_the_context_against_the_workload(write_skew, lost_update):
    ctx = AnalysisContext(write_skew)
    with pytest.raises(WorkloadError):
        check_robustness(
            lost_update, Allocation.si(lost_update), method="paper", context=ctx
        )


def test_production_path_never_loads_the_reference():
    """A fresh interpreter runs the production entry points without it."""
    code = "\n".join(
        [
            "import sys",
            "import repro, repro.cli, repro.service",
            "from repro import Allocation, AllocationManager, check_robustness,"
            " optimal_allocation, workload",
            "from repro.core.transactions import parse_transaction",
            "wl = workload('R1[x] W1[y]', 'R2[y] W2[x]', 'R3[p] W3[p]')",
            "assert optimal_allocation(wl) is not None",
            "assert not check_robustness(wl, Allocation.si(wl)).robust",
            "AllocationManager().add(parse_transaction('R1[x] W1[y]'))",
            "print('repro.core.reference' in sys.modules)",
        ]
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
