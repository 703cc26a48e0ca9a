"""Property tests: the bitset kernel is bit-identical to ``components``.

The acceptance contract of the kernel engine: on any (workload,
allocation) pair, ``method="bitset"`` must return the *same*
``RobustnessResult`` verdict, the *same* witness ``SplitScheduleSpec``,
and the *same* ``enumerate_counterexamples`` sequence (order included)
as ``method="components"`` — the kernel reorganizes the scan's data
layout, never its decisions.  The suite also pins the delta-restricted
scan (the scoped kernel loop against the filtered full loop),
Algorithm 2 end to end, the parallel (``n_jobs > 1``) paths, and
the two shortcuts the bitset path takes instead of the reference code:
the per-chain level table behind the witness cache against
``condition_failures``, and the kernel's connecting chains against the
graph-backed oracle.
"""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

import strategies as sts
from repro.core.allocation import optimal_allocation
from repro.core.context import AnalysisContext
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.kernel import iter_witness_triples
from repro.core.robustness import (
    _enumerate_specs,
    check_robustness,
    check_robustness_delta,
    enumerate_counterexamples,
)
from repro.core.split_schedule import (
    LEVEL_SHIFTS,
    condition_failures,
    is_valid_split_schedule,
    level_mask,
)
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
    bitset = check_robustness(wl, alloc, method="bitset")
    components = check_robustness(wl, alloc, method="components")
    assert bitset.robust == components.robust
    if not bitset.robust:
        assert bitset.counterexample.spec == components.counterexample.spec
        assert is_valid_split_schedule(bitset.counterexample.spec, wl, alloc)


@given(workload_and_allocation())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bitset_enumeration_order_matches_components(pair):
    """The full survey agrees element by element, in order."""
    wl, alloc = pair
    bitset = [
        c.spec for c in enumerate_counterexamples(wl, alloc, method="bitset")
    ]
    components = [
        c.spec
        for c in enumerate_counterexamples(wl, alloc, method="components")
    ]
    assert bitset == components


@given(workload_and_allocation())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bitset_delta_check_matches_components(pair):
    """The delta-restricted scan agrees for every choice of delta tid."""
    wl, alloc = pair
    for delta_tid in wl.tids:
        bitset = check_robustness_delta(wl, alloc, delta_tid, method="bitset")
        components = check_robustness_delta(
            wl, alloc, delta_tid, method="components"
        )
        assert bitset.robust == components.robust
        if not bitset.robust:
            assert (
                bitset.counterexample.spec == components.counterexample.spec
            )


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bitset_optimal_allocation_matches_components(wl):
    """Algorithm 2 lands on the identical optimum under either engine."""
    assert optimal_allocation(wl, method="bitset") == optimal_allocation(
        wl, method="components"
    )


@given(
    sts.allocated_workloads(min_transactions=2, max_transactions=5),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_level_mask_matches_condition_failures(pair):
    """The compiled table agrees with Definition 3.1 on all 27 level triples.

    Every spec the scan yields is re-checked under every assignment of
    levels to its ``T_1``, ``T_2`` and ``T_m`` (only the consistent ones
    when ``T_2`` is ``T_m``); the rest of the allocation stays as drawn.
    """
    wl, alloc = pair
    ctx = AnalysisContext(wl)
    shift1, shift2, shiftm = LEVEL_SHIFTS
    for spec in _enumerate_specs(wl, alloc, "bitset", ctx, 1):
        mask = level_mask(spec, wl)
        tid1, tid2, tidm = spec.split_tid, spec.middle_tids[0], spec.middle_tids[-1]
        for level1, level2, levelm in itertools.product(IsolationLevel, repeat=3):
            if tid2 == tidm and level2 is not levelm:
                continue
            trial = (
                alloc.with_level(tid1, level1)
                .with_level(tid2, level2)
                .with_level(tidm, levelm)
            )
            bit = shift1[level1] + shift2[level2] + shiftm[levelm]
            holds = (mask >> bit) & 1 == 1
            assert holds == (not condition_failures(spec, wl, trial)), (
                str(spec), level1, level2, levelm
            )


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
    kernel = AnalysisContext(wl).kernel()
    for t1 in wl:
        full = list(iter_witness_triples(kernel, alloc, t1))
        for d in wl.tids:
            expected = [
                triple
                for triple in full
                if d in (t1.tid, triple[0].tid, triple[1].tid)
            ]
            scoped = list(iter_witness_triples(kernel, alloc, t1, delta_tid=d))
            assert scoped == expected, (t1.tid, d)


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
    kernel = ctx.kernel()
    for t1 in wl:
        oracle = ctx.oracle(t1)
        candidates = ctx.candidates(t1, "components")
        for t2 in candidates:
            for tm in candidates:
                assert kernel.connecting_path(
                    t1.tid, t2.tid, tm.tid
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
        bitset = check_robustness(wl, alloc, method="bitset")
        components = check_robustness(wl, alloc, method="components")
        paper = check_robustness(wl, alloc, method="paper")
        assert bitset.robust == components.robust == paper.robust
        if not bitset.robust:
            assert (
                bitset.counterexample.spec == components.counterexample.spec
            )
        bit_specs = [
            c.spec for c in enumerate_counterexamples(wl, alloc, method="bitset")
        ]
        comp_specs = [
            c.spec
            for c in enumerate_counterexamples(wl, alloc, method="components")
        ]
        assert bit_specs == comp_specs
    assert optimal_allocation(wl, method="bitset") == optimal_allocation(
        wl, method="components"
    )


def test_bitset_parallel_matches_sequential():
    """n_jobs=2 with the bitset engine equals n_jobs=1, both engines.

    Fixed seed: one mixed-allocation workload large enough to split into
    several chunks, checked and surveyed through the pool.
    """
    from repro.workloads.generator import random_workload

    wl = random_workload(
        transactions=18, objects=12, min_ops=2, max_ops=4, seed=7
    )
    levels = list(IsolationLevel)
    alloc = Allocation(
        {tid: levels[tid % len(levels)] for tid in wl.tids}
    )
    seq = check_robustness(wl, alloc, method="bitset", n_jobs=1)
    par = check_robustness(wl, alloc, method="bitset", n_jobs=2)
    comp = check_robustness(wl, alloc, method="components", n_jobs=1)
    assert seq.robust == par.robust == comp.robust
    if not seq.robust:
        assert (
            seq.counterexample.spec
            == par.counterexample.spec
            == comp.counterexample.spec
        )
    seq_specs = [
        c.spec for c in enumerate_counterexamples(wl, alloc, method="bitset")
    ]
    par_specs = [
        c.spec
        for c in enumerate_counterexamples(
            wl, alloc, method="bitset", n_jobs=2
        )
    ]
    assert seq_specs == par_specs


def test_bitset_parallel_allocation_matches_sequential():
    """Algorithm 2 over the pool with the bitset probes: identical optimum."""
    from repro.workloads.generator import random_workload

    wl = random_workload(
        transactions=18, objects=12, min_ops=2, max_ops=4, seed=11
    )
    seq = optimal_allocation(wl, method="bitset", n_jobs=1)
    par = optimal_allocation(wl, method="bitset", n_jobs=2)
    comp = optimal_allocation(wl, method="components", n_jobs=1)
    assert seq == par == comp


def test_unknown_method_rejected():
    wl = figure2_workload()
    alloc = Allocation.si(wl)
    with pytest.raises(ValueError):
        check_robustness(wl, alloc, method="bitmask")
    with pytest.raises(ValueError):
        list(enumerate_counterexamples(wl, alloc, method="bitmask"))


def test_paper_method_rejected_with_jobs():
    wl = figure2_workload()
    alloc = Allocation.si(wl)
    with pytest.raises(ValueError, match="sequential-only"):
        check_robustness(wl, alloc, method="paper", n_jobs=2)
