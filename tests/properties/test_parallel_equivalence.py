"""Hypothesis: the process-pool engine ≡ the sequential engine.

The ISSUE's determinism contract, driven over random inputs: for any
(workload, allocation) the parallel paths must return the same verdict,
the same first counterexample chain, the same full counterexample
sequence (order included), and the same unique optimal allocation
(Proposition 4.2) as the in-process engines.

The suite reuses one persistent worker pool (module-level warm-up), so
each example costs milliseconds, not a pool spawn.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strategies as sts
from repro.core.allocation import optimal_allocation
from repro.core.context import AnalysisContext
from repro.core.isolation import Allocation, IsolationLevel, ORACLE_LEVELS, POSTGRES_LEVELS
from repro.core.robustness import check_robustness, enumerate_counterexamples
from repro.core.workload import workload


@st.composite
def workload_and_allocation(draw):
    wl = draw(sts.workloads(min_transactions=1, max_transactions=4))
    return wl, draw(sts.allocations(wl))


def setup_module(module):
    """Warm the pool once so per-example latency is task latency."""
    wl = workload("R1[x] W1[y]", "R2[y] W2[x]")
    check_robustness(wl, Allocation.si(wl), n_jobs=2)


@given(workload_and_allocation())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parallel_check_equals_sequential(pair):
    wl, alloc = pair
    seq = check_robustness(wl, alloc)
    par = check_robustness(wl, alloc, n_jobs=2)
    assert seq.robust == par.robust
    if not seq.robust:
        assert seq.counterexample.spec == par.counterexample.spec
        assert str(seq.counterexample.schedule) == str(par.counterexample.schedule)


@given(workload_and_allocation())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parallel_enumeration_equals_sequential(pair):
    wl, alloc = pair
    seq = [c.spec for c in enumerate_counterexamples(wl, alloc)]
    par = [c.spec for c in enumerate_counterexamples(wl, alloc, n_jobs=2)]
    assert seq == par


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parallel_optimum_equals_sequential(wl):
    assert optimal_allocation(wl) == optimal_allocation(wl, n_jobs=2)


@given(sts.workloads(min_transactions=1, max_transactions=5))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parallel_probe_count_equals_sequential(wl):
    """``checks`` counts the probes, the same on both paths.

    Each transaction ends at the same level either way (Proposition
    4.1), so both refinements probe the same (transaction, level) pairs,
    and every probe counts one check.
    """
    for levels in (POSTGRES_LEVELS, ORACLE_LEVELS):
        seq_ctx, par_ctx = AnalysisContext(wl), AnalysisContext(wl)
        seq = optimal_allocation(wl, levels, context=seq_ctx)
        par = optimal_allocation(wl, levels, context=par_ctx, n_jobs=2)
        assert seq == par
        assert seq_ctx.stats.checks == par_ctx.stats.checks


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_parallel_oracle_optimum_equals_sequential(wl):
    """{RC, SI}: existence gate (Prop 5.4) + refinement agree as well."""
    oracle = (IsolationLevel.RC, IsolationLevel.SI)
    assert optimal_allocation(wl, oracle) == optimal_allocation(
        wl, oracle, n_jobs=2
    )
