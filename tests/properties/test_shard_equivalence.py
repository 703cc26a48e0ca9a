"""Property tests: the default per-component analysis equals one-unit analysis.

The acceptance contract of component sharding (``repro.core.sharding``):
every public entry point analyzes per conflict component by default, and
on any (workload, allocation) pair it must return the *same* verdict,
the *same* witness ``SplitScheduleSpec``, the *same*
``enumerate_counterexamples`` spec sequence (order included) and the
*same* optimal allocation as a run through a context whose plan has the
whole workload as its one part (``one_unit``), which analyzes the
workload as one unit.  Algorithm 2 must also issue the same robustness
checks on both paths.  The reference engines of
:mod:`repro.core.reference` take no plan; the kernel suite checks the
production path against them.  Identity is at the *spec*
level: ``MVSchedule`` objects compare by identity, and two independent
materializations of the same spec are distinct objects even
one-unit-vs-one-unit (matching the kernel-equivalence suite's contract).

Extremes are covered explicitly: a single-component workload (the shard
pipeline degenerates to exactly one monolithic run) and an all-singleton
workload (every transaction its own shard).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

import strategies as sts
from strategies import one_unit
from repro.core.allocation import (
    is_robustly_allocatable,
    optimal_allocation,
    upgrade_to_robust,
)
from repro.core.context import AnalysisContext
from repro.core.isolation import (
    Allocation,
    IsolationLevel,
    ORACLE_LEVELS,
    POSTGRES_LEVELS,
)
from repro.core.robustness import (
    check_robustness,
    check_robustness_delta,
    enumerate_counterexamples,
)
from repro.core.sharding import conflict_components
from repro.core.split_schedule import is_valid_split_schedule
from repro.observability import Tracer, use_tracer
from repro.workloads.generator import clustered_workload
from repro.workloads.paper_examples import (
    example26_workload,
    example52_workload,
    figure2_workload,
)
from repro.workloads.smallbank import smallbank_one_of_each
from repro.workloads.tpcc import tpcc_one_of_each

@st.composite
def workload_and_allocation(draw):
    wl = draw(sts.workloads(min_transactions=1, max_transactions=4))
    levels = {
        tid: draw(st.sampled_from(list(IsolationLevel))) for tid in wl.tids
    }
    return wl, Allocation(levels)


def assert_check_matches(wl, alloc):
    mono = check_robustness(wl, alloc, context=one_unit(wl))
    sharded = check_robustness(wl, alloc)
    assert mono.robust == sharded.robust
    if not mono.robust:
        assert mono.counterexample.spec == sharded.counterexample.spec
        assert is_valid_split_schedule(sharded.counterexample.spec, wl, alloc)


def assert_enumeration_matches(wl, alloc):
    mono = [
        ce.spec
        for ce in enumerate_counterexamples(
            wl, alloc, materialize_schedules=False, context=one_unit(wl)
        )
    ]
    sharded = [
        ce.spec
        for ce in enumerate_counterexamples(wl, alloc, materialize_schedules=False)
    ]
    assert mono == sharded


def assert_allocation_matches(wl, levels):
    mono = optimal_allocation(wl, levels, context=one_unit(wl))
    sharded = optimal_allocation(wl, levels)
    assert mono == sharded


@given(workload_and_allocation())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_verdict_and_witness_match_monolithic(pair):
    """Same verdict, same first-witness spec, on random inputs."""
    wl, alloc = pair
    assert_check_matches(wl, alloc)


@given(workload_and_allocation())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_enumeration_order_matches_monolithic(pair):
    """Same counterexample specs, in the same order."""
    wl, alloc = pair
    assert_enumeration_matches(wl, alloc)


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_optimal_allocation_matches_monolithic(wl):
    """Same optimum, for both level classes."""
    assert_allocation_matches(wl, POSTGRES_LEVELS)
    assert_allocation_matches(wl, ORACLE_LEVELS)


@given(workload_and_allocation())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_upgrade_and_allocatability_match_monolithic(pair):
    wl, alloc = pair
    assert upgrade_to_robust(wl, alloc) == upgrade_to_robust(
        wl, alloc, context=one_unit(wl)
    )
    assert is_robustly_allocatable(wl) == is_robustly_allocatable(
        wl, context=one_unit(wl)
    )


def assert_counters_match(wl, levels):
    """Same optimum and same ``checks`` on both paths.

    Every refinement probe counts one check.  The sharded refinement
    issues exactly the one-unit run's probes, each component's in the
    same relative order.  ``index_builds`` legitimately differs — one
    conflict index per analyzed component against exactly one for the
    one-unit run — and is pinned separately below.
    """
    unit = one_unit(wl)
    expected = optimal_allocation(wl, levels, context=unit)
    tracer = Tracer()
    with use_tracer(tracer):
        default = optimal_allocation(wl, levels)
    sharded = AnalysisContext(wl)
    assert default == expected
    assert optimal_allocation(wl, levels, context=sharded) == expected
    assert sharded.stats.checks == unit.stats.checks
    counters = tracer.registry.counters
    assert counters.get("robustness.checks", 0) == unit.stats.checks
    assert unit.stats.index_builds == 1
    assert sharded.stats.index_builds <= len(sharded.plan)
    if expected is not None:  # every component was refined
        assert sharded.stats.index_builds == len(sharded.plan)


@given(sts.workloads(min_transactions=1, max_transactions=5))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_counters_match_one_unit(wl):
    assert_counters_match(wl, POSTGRES_LEVELS)
    assert_counters_match(wl, ORACLE_LEVELS)


@pytest.mark.parametrize("seed", [3, 8, 13])
def test_sharded_counters_match_one_unit_on_clustered_workloads(seed):
    wl = clustered_workload(
        components=4, per_component=4, objects_per_component=5, seed=seed
    )
    assert len(conflict_components(wl)) >= 4
    assert_counters_match(wl, POSTGRES_LEVELS)
    assert_counters_match(wl, ORACLE_LEVELS)


#: The ``ContextStats`` fields counted per analyzed component: a sharded
#: run builds a conflict index per component, and with it a kernel, rows
#: and pair tables whose counts depend on how the workload was split.  Every other field counts the same work on both paths.
PER_COMPONENT_FIELDS = frozenset(
    {
        "index_builds",
        "kernel_builds",
        "kernel_row_builds",
        "pair_builds",
        "pair_hits",
    }
)


@st.composite
def clustered_workloads(draw):
    """Two or three private-object clusters, with interleaved tids."""
    return clustered_workload(
        components=draw(st.integers(min_value=2, max_value=3)),
        per_component=draw(st.integers(min_value=2, max_value=3)),
        objects_per_component=draw(st.integers(min_value=2, max_value=4)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@given(
    st.one_of(
        sts.workloads(min_transactions=1, max_transactions=5),
        clustered_workloads(),
    )
)
@settings(max_examples=75, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_stats_match_one_unit_outside_per_component_fields(wl):
    """Every ``ContextStats`` field but the per-component ones agrees.

    Sharded and one-unit Algorithm 2 runs do the same work by design, so
    ``checks``, ``kernel_row_hits`` and the ``plan_*`` fields must be
    equal, for both level classes.
    """
    for levels in (POSTGRES_LEVELS, ORACLE_LEVELS):
        unit, sharded = one_unit(wl), AnalysisContext(wl)
        expected = optimal_allocation(wl, levels, context=unit)
        assert optimal_allocation(wl, levels, context=sharded) == expected
        left, right = sharded.stats.as_dict(), unit.stats.as_dict()
        differing = {name for name in left if left[name] != right[name]}
        assert differing <= PER_COMPONENT_FIELDS, (levels, differing)


def assert_delta_checks_match(wl):
    """Every one-step candidate: sharded delta check ≡ one-unit delta check.

    The candidates lower one transaction of a robust allocation (all-SSI
    and the optimum).  The default context, built fresh or passed in,
    scans only the lowered transaction's component and must return the
    one-unit verdict and spec.
    """
    for base in (Allocation.ssi(wl), optimal_allocation(wl)):
        for tid in wl.tids:
            for level in IsolationLevel:
                if level >= base[tid]:
                    continue
                candidate = base.with_level(tid, level)
                unit = check_robustness_delta(
                    wl, candidate, tid, context=one_unit(wl)
                )
                for context in (None, AnalysisContext(wl)):
                    sharded = check_robustness_delta(
                        wl, candidate, tid, context=context
                    )
                    assert sharded.robust == unit.robust
                    if not unit.robust:
                        spec = sharded.counterexample.spec
                        assert spec == unit.counterexample.spec
                        assert is_valid_split_schedule(spec, wl, candidate)


@given(sts.workloads(min_transactions=1, max_transactions=5))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_sharded_delta_check_matches_one_unit(wl):
    assert_delta_checks_match(wl)


@pytest.mark.parametrize("seed", [3, 8])
def test_sharded_delta_check_matches_one_unit_on_clustered_workloads(seed):
    wl = clustered_workload(
        components=4, per_component=4, objects_per_component=5, seed=seed
    )
    assert len(conflict_components(wl)) >= 4
    assert_delta_checks_match(wl)


@pytest.mark.parametrize(
    "make",
    [
        figure2_workload,
        example26_workload,
        example52_workload,
        smallbank_one_of_each,
        tpcc_one_of_each,
    ],
)
def test_paper_examples_sharded_equivalence(make):
    """The paper's running examples through every composed entry point."""
    wl = make()
    for level in IsolationLevel:
        alloc = Allocation.uniform(wl, level)
        assert_check_matches(wl, alloc)
        assert_enumeration_matches(wl, alloc)
    assert_allocation_matches(wl, POSTGRES_LEVELS)
    assert_allocation_matches(wl, ORACLE_LEVELS)


def test_single_component_workload_degenerates_cleanly():
    """One conflict component: the core runs on the caller's workload."""
    wl = figure2_workload()
    assert len(conflict_components(wl)) == 1
    for level in IsolationLevel:
        assert_check_matches(wl, Allocation.uniform(wl, level))
    assert_allocation_matches(wl, POSTGRES_LEVELS)
    ctx = AnalysisContext(wl)
    assert ctx._part_workload(0) is wl  # no restricted copy
    optimal_allocation(wl, context=ctx)
    assert ctx.stats.index_builds == 1


def test_all_singleton_workload():
    """Every transaction its own shard: trivially robust everywhere."""
    from repro.core.workload import workload as make_workload

    wl = make_workload("R1[a] W1[b]", "R2[c] W2[d]", "R3[e]")
    assert conflict_components(wl) == ((1,), (2,), (3,))
    for level in IsolationLevel:
        alloc = Allocation.uniform(wl, level)
        assert_check_matches(wl, alloc)
        assert_enumeration_matches(wl, alloc)
    assert_allocation_matches(wl, POSTGRES_LEVELS)
    assert optimal_allocation(wl) == Allocation.uniform(
        wl, IsolationLevel.RC
    )


@pytest.mark.parametrize("seed", [7, 11])
def test_clustered_sharded_equivalence(seed):
    """A three-component clustered workload matches the one-unit result."""
    wl = clustered_workload(
        components=3, per_component=4, objects_per_component=5, seed=seed
    )
    assert len(conflict_components(wl)) >= 3
    for level in IsolationLevel:
        alloc = Allocation.uniform(wl, level)
        assert_check_matches(wl, alloc)
        assert_enumeration_matches(wl, alloc)
    assert_allocation_matches(wl, POSTGRES_LEVELS)
    assert_allocation_matches(wl, ORACLE_LEVELS)


def test_shared_context_reuse_matches_fresh():
    """One context across many checks changes no verdicts."""
    wl = clustered_workload(components=3, per_component=3, seed=5)
    sctx = AnalysisContext(wl)
    for level in IsolationLevel:
        alloc = Allocation.uniform(wl, level)
        fresh = check_robustness(wl, alloc)
        reused = check_robustness(wl, alloc, context=sctx)
        assert fresh.robust == reused.robust
        if not fresh.robust:
            assert fresh.counterexample.spec == reused.counterexample.spec
    assert optimal_allocation(wl, context=sctx) == optimal_allocation(wl)
