"""The delta-restricted check agrees with the full Algorithm 1 check.

``check_robustness_delta(wl, candidate, t)`` is sound for *any* candidate
whose allocation differs from a known-robust base at exactly transaction
``t``: every witness triple of such a candidate must involve ``t``
(Definition 3.1's level-dependent conditions mention only the triple's
levels, and the base admits no witness at all).  The property test below
drives exactly that contract — take a random workload, compute a robust
allocation, lower one transaction one level, and compare the delta
verdict with the full check.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest
import strategies as sts
from repro.core.allocation import optimal_allocation
from repro.core.context import AnalysisContext
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.robustness import check_robustness, check_robustness_delta
from repro.core.split_schedule import is_valid_split_schedule
from repro.core.workload import WorkloadError, workload


@st.composite
def robust_base_and_downgrade(draw):
    """(workload, candidate, tid): candidate = robust optimum lowered at tid."""
    wl = draw(sts.workloads(min_transactions=1, max_transactions=4))
    base = optimal_allocation(wl)
    lowerable = [tid for tid in wl.tids if base[tid] is not IsolationLevel.RC]
    if not lowerable:
        return None
    tid = draw(st.sampled_from(lowerable))
    lower = (
        IsolationLevel.RC
        if base[tid] is IsolationLevel.SI
        else draw(st.sampled_from([IsolationLevel.RC, IsolationLevel.SI]))
    )
    return wl, base.with_level(tid, lower), tid


@given(robust_base_and_downgrade())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_check_equals_full_check(case):
    if case is None:  # optimum already all-RC: nothing to downgrade
        return
    wl, candidate, tid = case
    full = check_robustness(wl, candidate)
    delta = check_robustness_delta(wl, candidate, tid)
    # The base is the *optimal* allocation, so every single-transaction
    # downgrade must break robustness — and the delta check must see it.
    assert not full.robust
    assert not delta.robust
    # The full scan's first witness already runs through the changed
    # transaction, so the scoped scan returns the very same chain.
    assert delta.counterexample.spec == full.counterexample.spec
    assert is_valid_split_schedule(delta.counterexample.spec, wl, candidate)
    chain_tids = {quad.tid_i for quad in delta.counterexample.spec.chain}
    assert tid in chain_tids  # the witness involves the changed transaction


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_delta_check_confirms_robust_upgrades(wl):
    """Raising one transaction from a robust base stays robust — and the
    delta scan (which examines only triples through the raised
    transaction) agrees with the full check."""
    base = optimal_allocation(wl)
    for tid in wl.tids:
        if base[tid] is IsolationLevel.SSI:
            continue
        candidate = base.with_level(tid, IsolationLevel.SSI)
        assert check_robustness(wl, candidate).robust
        assert check_robustness_delta(wl, candidate, tid).robust


def test_delta_check_validates_arguments(write_skew):
    alloc = Allocation.uniform(write_skew, IsolationLevel.SI)
    with pytest.raises(WorkloadError):
        check_robustness_delta(write_skew, alloc, 99)
    partial = Allocation({1: IsolationLevel.SI})
    with pytest.raises(WorkloadError):
        check_robustness_delta(write_skew, partial, 1)


def test_delta_check_shares_the_context(write_skew):
    ctx = AnalysisContext(write_skew)
    alloc = Allocation.uniform(write_skew, IsolationLevel.SSI)
    lowered = alloc.with_level(1, IsolationLevel.SI)
    before = ctx.stats.checks
    check_robustness_delta(write_skew, lowered, 1, context=ctx)
    assert ctx.stats.checks == before + 1
