"""Property tests: per-component analysis equals whole-workload analysis.

Every chain of Definition 3.1 links conflicting transactions, so
verdicts, witnesses and optima decompose exactly over the conflict
components.  The library analyzes a workload as one unit, with each
kernel row and level list numbered inside its component (the
``AnalysisContext`` is the conflict index); the incremental
``AllocationManager`` keeps one such context over its live set and
re-analyzes only the components a mutation touched.  On any
(workload, allocation) pair the per-component path
must return the *same* verdict, the *same* witness ``SplitScheduleSpec``,
the *same* ``enumerate_counterexamples`` spec sequence (order included)
and the *same* optimal allocation as the whole-workload path, and
Algorithm 2 must issue the same probes.  The per-component side is the
manager (its ``check`` and its optimum) or one context per component's
sub-workload, composed in smallest-tid order.  Identity is at the
*spec* level: ``MVSchedule`` objects compare by identity.

Extremes are covered explicitly: a single-component workload and an
all-singleton workload (every transaction its own component).
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

import strategies as sts
from strategies import brute_force_components
from repro.core.allocation import (
    is_robustly_allocatable,
    optimal_allocation,
    refine_allocation,
    upgrade_to_robust,
)
from repro.core.context import AnalysisContext
from repro.core.incremental import AllocationManager
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
    is_robust,
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


def manager_of(wl):
    """A manager fed ``wl`` in one batch."""
    manager = AllocationManager()
    manager.apply_batch([("add", txn) for txn in wl])
    return manager


def parts(wl):
    """The sub-workload of each conflict component, smallest tid first."""
    return [wl.restricted_to(members) for members in conflict_components(wl)]


def composed(wl, run):
    """``run(part)`` per component, composed; ``None`` when a part's is."""
    levels = {}
    for part in parts(wl):
        result = run(part)
        if result is None:
            return None
        levels.update((tid, result[tid]) for tid in part.tids)
    return Allocation(levels)


def assert_check_matches(wl, alloc):
    whole = check_robustness(wl, alloc)
    sharded = manager_of(wl).check(alloc)
    assert whole.robust == sharded.robust
    if not whole.robust:
        assert whole.counterexample.spec == sharded.counterexample.spec
        assert is_valid_split_schedule(sharded.counterexample.spec, wl, alloc)


def assert_enumeration_matches(wl, alloc):
    whole = [
        ce.spec
        for ce in enumerate_counterexamples(wl, alloc, materialize_schedules=False)
    ]
    sharded = sorted(
        (
            ce.spec
            for part in parts(wl)
            for ce in enumerate_counterexamples(
                part, alloc, materialize_schedules=False
            )
        ),
        key=lambda spec: spec.split_tid,  # stable: each T_1's order kept
    )
    assert whole == sharded


def assert_allocation_matches(wl, levels):
    whole = optimal_allocation(wl, levels)
    assert whole == composed(wl, lambda part: optimal_allocation(part, levels))
    if max(levels) is IsolationLevel.SSI:  # the manager needs SSI in the class
        assert whole == manager_of(wl).allocation


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
    assert upgrade_to_robust(wl, alloc) == composed(
        wl, lambda part: upgrade_to_robust(part, alloc)
    )
    assert is_robustly_allocatable(wl) == all(
        is_robustly_allocatable(part) for part in parts(wl)
    )


def assert_counters_match(wl, levels):
    """Same optimum and same probes, whole or per component.

    Every refinement probe counts one check, and the whole-workload
    refinement issues exactly the per-component runs' probes.  For
    {RC, SI}, the whole run's one start check (Proposition 5.4) stands
    for the per-component runs' one each.  The manager adds one start
    check per component it admits, and builds no conflict index: it
    renumbers its one context in place.
    """
    whole = AnalysisContext(wl)
    tracer = Tracer()
    with use_tracer(tracer):
        expected = optimal_allocation(wl, levels, context=whole)
    assert tracer.registry.counters.get("robustness.checks", 0) == whole.stats.checks
    assert whole.stats.index_builds == 1
    if expected is None:  # {RC, SI} and not allocatable: the start check only
        assert whole.stats.checks == 1
        return
    contexts = [AnalysisContext(part) for part in parts(wl)]
    probes = 0
    for part, context in zip(parts(wl), contexts):
        result = optimal_allocation(part, levels, context=context)
        assert all(result[tid] == expected[tid] for tid in part.tids)
        probes += context.stats.checks
    if max(levels) is IsolationLevel.SSI:
        assert whole.stats.checks == probes
        stats = manager_of(wl).last_stats
        assert stats.checks == whole.stats.checks + len(contexts)
        assert stats.index_builds == 0
    else:
        assert whole.stats.checks == probes - len(contexts) + 1


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


#: The ``ContextStats`` fields counted per context: the per-component
#: runs build a conflict index each.  Every other field counts the same
#: work on both paths.
PER_COMPONENT_FIELDS = frozenset({"index_builds"})


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

    A refinement of the whole workload and the refinements of its
    components do the same work — the same probes, and the same kernel
    rows built and hit, since each row stays inside its ``T_1``'s
    component — for both level classes, refining from the top level.
    """
    for levels in (POSTGRES_LEVELS, ORACLE_LEVELS):
        top = max(levels)
        start = Allocation.uniform(wl, top)
        if not is_robust(wl, start):
            continue  # {RC, SI} without a robust allocation: nothing to refine
        whole = AnalysisContext(wl)
        expected = refine_allocation(wl, start, levels, context=whole)
        summed = Counter()
        for part in parts(wl):
            context = AnalysisContext(part)
            result = refine_allocation(
                part, Allocation.uniform(part, top), levels, context=context
            )
            assert all(result[tid] == expected[tid] for tid in part.tids)
            summed.update(context.stats.as_dict())
        left = whole.stats.as_dict()
        differing = {name for name in left if left[name] != summed[name]}
        assert differing <= PER_COMPONENT_FIELDS, (levels, differing)


def assert_delta_checks_match(wl):
    """Every one-step candidate: the delta check on the lowered
    transaction's component ≡ the delta check on the whole workload.

    The candidates lower one transaction of a robust allocation (all-SSI
    and the optimum).  The component's context, built fresh or passed
    in, must return the whole-workload verdict and spec.
    """
    component_of = {
        tid: members for members in conflict_components(wl) for tid in members
    }
    for base in (Allocation.ssi(wl), optimal_allocation(wl)):
        for tid in wl.tids:
            part = wl.restricted_to(component_of[tid])
            for level in IsolationLevel:
                if level >= base[tid]:
                    continue
                candidate = base.with_level(tid, level)
                whole = check_robustness_delta(wl, candidate, tid)
                for context in (None, AnalysisContext(part)):
                    sharded = check_robustness_delta(
                        part, candidate, tid, context=context
                    )
                    assert sharded.robust == whole.robust
                    if not whole.robust:
                        spec = sharded.counterexample.spec
                        assert spec == whole.counterexample.spec
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


@given(sts.sparse_tid_workloads())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_index_component_matches_conflict_components(wl):
    """The conflict index finds the pairwise reference's components.

    ``AnalysisContext`` flood-fills its readers and writers per object;
    ``brute_force_components`` unions every pair that
    ``transactions_conflict``.  They share no code.  Non-contiguous
    tids keep ranks and tids apart: each member's bit is its rank in
    its component.
    """
    ctx = AnalysisContext(wl)
    components = [component.tids for component in ctx.components()]
    assert set(components) == brute_force_components(wl)
    assert components == sorted(components)
    for members in components:
        assert [ctx.bit[tid] for tid in members] == list(range(len(members)))
        assert all(ctx.component_of[tid].tids == members for tid in members)


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
    """One conflict component: one context, whole or in the manager."""
    wl = figure2_workload()
    assert len(conflict_components(wl)) == 1
    for level in IsolationLevel:
        assert_check_matches(wl, Allocation.uniform(wl, level))
    assert_allocation_matches(wl, POSTGRES_LEVELS)
    manager = manager_of(wl)
    assert manager.components == (wl.tids,)
    assert manager.last_stats.index_builds == 0
    ctx = AnalysisContext(wl)
    optimal_allocation(wl, context=ctx)
    assert ctx.stats.index_builds == 1


def test_all_singleton_workload():
    """Every transaction its own component: trivially robust everywhere."""
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
    """A three-component clustered workload matches the whole-workload result."""
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
