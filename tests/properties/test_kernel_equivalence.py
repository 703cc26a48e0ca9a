"""Property tests: the bitset kernel is bit-identical to the reference.

The acceptance contract of the kernel, the one production engine: on
any (workload, allocation) pair, the production entry points must
return the *same* verdict, the *same* witness ``SplitScheduleSpec``,
and the *same* ``enumerate_counterexamples`` sequence (order included)
as the ``components`` engine of :mod:`repro.core.reference` — the
kernel reorganizes the scan's data layout, never its decisions.  The
suite also pins the delta-restricted scan (the scoped kernel loop
against the filtered full loop), Algorithm 2 end to end, two fixed
mid-sized workloads, and the kernel's connecting chains against the
graph-backed oracle.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

import strategies as sts
from repro.core import reference
from repro.core.allocation import optimal_allocation, upgrade_to_robust
from repro.core.conflicts import transactions_conflict
from repro.core.context import AnalysisContext
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.kernel import connecting_path, iter_witness_triples, level_list
from repro.core.robustness import (
    _first_witness,
    _probe,
    check_robustness,
    check_robustness_delta,
    enumerate_counterexamples,
)
from repro.core.split_schedule import is_valid_split_schedule
from repro.workloads.generator import random_workload
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


@given(workload_and_allocation())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bitset_verdict_and_witness_match_components(pair):
    """Same verdict, same counterexample spec, on random inputs."""
    wl, alloc = pair
    bitset = check_robustness(wl, alloc)
    components = reference.first_witness_spec(wl, alloc, "components")
    assert bitset.robust == (components is None)
    if not bitset.robust:
        assert bitset.counterexample.spec == components
        assert is_valid_split_schedule(bitset.counterexample.spec, wl, alloc)


@given(workload_and_allocation())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bitset_enumeration_order_matches_components(pair):
    """The full survey agrees element by element, in order."""
    wl, alloc = pair
    bitset = [c.spec for c in enumerate_counterexamples(wl, alloc)]
    components = reference.survey(wl, alloc, "components")
    assert bitset == components


@given(workload_and_allocation())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bitset_delta_check_matches_components(pair):
    """The delta-restricted scan agrees for every choice of delta tid."""
    wl, alloc = pair
    for delta_tid in wl.tids:
        bitset = check_robustness_delta(wl, alloc, delta_tid)
        components = reference.first_witness_spec(
            wl, alloc, "components", delta_tid=delta_tid
        )
        assert bitset.robust == (components is None)
        if not bitset.robust:
            assert bitset.counterexample.spec == components


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bitset_optimal_allocation_matches_components(wl):
    """Algorithm 2 lands on the identical optimum under either engine."""
    assert optimal_allocation(wl) == reference.optimal_allocation(
        wl, engine="components"
    )[0]


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=12),
    st.lists(st.sampled_from(list(IsolationLevel)), min_size=12, max_size=12),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_scoped_triples_are_the_filtered_full_scan(seed, size, levels):
    """The scoped kernel loop yields the full loop's triples through ``d``.

    For every ``T_1`` and every tid ``d`` — ``T_1`` itself, a conflict
    neighbour of ``T_1``, or a transaction it does not conflict with —
    the scoped scan is exactly the full scan's triples having ``d`` as
    ``T_1``, ``T_2`` or ``T_m``, in the same order.
    """
    wl = random_workload(
        transactions=size, objects=size + 2, min_ops=2, max_ops=4, seed=seed
    )
    alloc = Allocation({tid: levels[i] for i, tid in enumerate(wl.tids)})
    ctx = AnalysisContext(wl)
    for t1 in wl:
        full = list(iter_witness_triples(ctx, alloc, t1, {}))
        for d in wl.tids:
            expected = [
                triple
                for triple in full
                if d in (t1.tid, triple[0].tid, triple[1].tid)
            ]
            scoped = list(iter_witness_triples(ctx, alloc, t1, {}, delta_tid=d))
            assert scoped == expected, (t1.tid, d)


def _pairwise_neighbours(wl):
    """Conflict neighbours by the O(|T|^2) pairwise build, in its set order."""
    neighbours = {t.tid: set() for t in wl.transactions}
    txns = wl.transactions
    for i, ti in enumerate(txns):
        for tj in txns[i + 1 :]:
            if transactions_conflict(ti, tj):
                neighbours[ti.tid].add(tj.tid)
                neighbours[tj.tid].add(ti.tid)
    return neighbours


@given(sts.sparse_tid_workloads())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mask_conflict_index_matches_pairwise_build(wl):
    """Same neighbours, in the same set iteration order, as a pairwise build.

    Large non-contiguous tids collide in small hash tables, so the
    iteration order of a set is not ascending — the mask build must
    still reproduce it, since connecting chains start their search in
    that order.
    """
    ctx = AnalysisContext(wl)
    expected = _pairwise_neighbours(wl)
    for tid in wl.tids:
        neighbours = ctx.conflict_neighbours(tid)
        assert neighbours == expected[tid]
        assert list(neighbours) == list(expected[tid]), tid
        for other in wl.tids:
            assert ctx.conflict(tid, other) == (other in expected[tid])


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=14),
    st.lists(st.sampled_from(list(IsolationLevel)), min_size=14, max_size=14),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_existence_probe_matches_components_first_witness(seed, size, levels):
    """The probe's verdict is the reference engine's, on every lowering.

    A random allocation is lifted to a robust one; every one-step
    lowering of it is probed scoped to the lowered transaction and
    over its whole conflict component, through the :class:`Allocation`
    scan and through the level-list probe the refinement and the
    manager call, and each verdict must equal whether ``components``
    finds a first witness.
    """
    wl = random_workload(
        transactions=size, objects=size + 2, min_ops=2, max_ops=4, seed=seed
    )
    drawn = Allocation({tid: levels[i] for i, tid in enumerate(wl.tids)})
    robust = upgrade_to_robust(wl, drawn)
    ctx = AnalysisContext(wl)
    ladder = sorted(IsolationLevel)
    for tid in wl.tids:
        rank = ladder.index(robust[tid])
        if not rank:
            continue
        lowered = robust.with_level(tid, ladder[rank - 1])
        # Lowering one transaction of a robust allocation creates
        # witnesses only in its own component: the probes scan that one.
        component = ctx.component_of[tid]
        flag = 1 << ctx.bit[tid]
        for delta_tid in (tid, None):
            expected = reference.first_witness_spec(
                wl, lowered, "components", delta_tid=delta_tid
            )
            found = _first_witness(ctx, lowered, delta_tid) is not None
            assert found == (expected is not None), (tid, delta_tid)
            levels, ssi = level_list(lowered, component.tids)
            if delta_tid is None:  # the manager's start check
                t1s, scoped = (1 << len(component.tids)) - 1, 0
            else:  # a refinement probe
                t1s, scoped = component.nbrs[ctx.bit[tid]] | flag, flag
            probed = _probe(ctx, component, levels, ssi, t1s, scoped)
            assert probed == (expected is not None), (tid, delta_tid)


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=4, max_value=14),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_kernel_connecting_path_matches_oracle(seed, size):
    """Kernel chains equal the oracle's for every candidate pair of every T_1.

    Sparse random workloads give mixed-iso-graphs with several components
    and multi-hop, branching paths, where the breadth-first search's
    start and neighbour order decide which path comes back.
    """
    wl = random_workload(
        transactions=size, objects=size + 2, min_ops=2, max_ops=3, seed=seed
    )
    ctx = AnalysisContext(wl)
    sets_of = reference.conflict_sets(wl)
    for t1 in wl:
        oracle = reference.ReachabilityOracle(sets_of[t1.tid], t1)
        candidates = [
            wl[tid] for tid in sorted(sets_of[t1.tid].conflict_neighbours(t1.tid))
        ]
        for t2 in candidates:
            for tm in candidates:
                assert connecting_path(
                    ctx, t1.tid, t2.tid, tm.tid
                ) == oracle.connecting_path(t2.tid, tm.tid), (t1.tid, t2.tid, tm.tid)


@pytest.mark.parametrize(
    "factory",
    [
        figure2_workload,
        example26_workload,
        example52_workload,
        smallbank_one_of_each,
        tpcc_one_of_each,
    ],
)
def test_paper_examples_agree_across_engines(factory):
    """Uniform allocations + the optimum on every paper/named workload."""
    wl = factory()
    for level in IsolationLevel:
        alloc = Allocation.uniform(wl, level)
        bitset = check_robustness(wl, alloc)
        components = reference.first_witness_spec(wl, alloc, "components")
        paper = reference.first_witness_spec(wl, alloc, "paper")
        assert bitset.robust == (components is None) == (paper is None)
        if not bitset.robust:
            assert bitset.counterexample.spec == components
        bit_specs = [c.spec for c in enumerate_counterexamples(wl, alloc)]
        comp_specs = reference.survey(wl, alloc, "components")
        assert bit_specs == comp_specs
    assert optimal_allocation(wl) == reference.optimal_allocation(
        wl, engine="components"
    )[0]


def test_bitset_fixed_workload_matches_components():
    """Check and survey of one fixed mixed-allocation workload.

    Fixed seed: an 18-transaction workload under a mixed allocation,
    checked and surveyed by both engines.
    """
    wl = random_workload(
        transactions=18, objects=12, min_ops=2, max_ops=4, seed=7
    )
    levels = list(IsolationLevel)
    alloc = Allocation(
        {tid: levels[tid % len(levels)] for tid in wl.tids}
    )
    bitset = check_robustness(wl, alloc)
    comp = reference.first_witness_spec(wl, alloc, "components")
    assert bitset.robust == (comp is None)
    if not bitset.robust:
        assert bitset.counterexample.spec == comp
    bit_specs = [c.spec for c in enumerate_counterexamples(wl, alloc)]
    comp_specs = reference.survey(wl, alloc, "components")
    assert bit_specs == comp_specs


def test_bitset_fixed_allocation_matches_components():
    """Algorithm 2 on one fixed 18-transaction workload: identical optimum."""
    wl = random_workload(
        transactions=18, objects=12, min_ops=2, max_ops=4, seed=11
    )
    assert optimal_allocation(wl) == reference.optimal_allocation(
        wl, engine="components"
    )[0]


def test_unknown_method_rejected():
    wl = figure2_workload()
    alloc = Allocation.si(wl)
    with pytest.raises(ValueError):
        check_robustness(wl, alloc, method="bitmask")
