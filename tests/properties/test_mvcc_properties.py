"""Property tests tying the MVCC engine to the formal semantics.

The engine is the operational model of the paper's Definitions 2.3/2.4;
these tests are the contract between the two:

* every execution trace, converted to a formal schedule, is *allowed
  under* its allocation (Definition 2.4);
* when the robustness checker says a workload is robust against an
  allocation, every execution under that allocation is conflict
  serializable (Definition 2.7 observed end-to-end);
* executions under ``A_SSI`` are always serializable.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strategies as sts
from repro.core.allowed import allowed_under
from repro.core.isolation import Allocation
from repro.core.robustness import is_robust
from repro.core.serialization import is_conflict_serializable
from repro.mvcc import exploration_config, simulate_workload, trace_to_schedule

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(sts.allocated_workloads(max_transactions=5), st.integers(0, 1_000))
@settings(max_examples=80, **COMMON)
def test_traces_are_allowed_under_their_allocation(pair, seed):
    wl, alloc = pair
    trace, stats = simulate_workload(wl, alloc, exploration_config(len(wl), seed=seed))
    assert stats.commits == len(wl)
    schedule = trace_to_schedule(trace, wl)
    report = allowed_under(schedule, alloc)
    assert report.allowed, f"{report}\ntrace: {trace}"


@given(sts.allocated_workloads(max_transactions=4), st.integers(0, 1_000))
@settings(max_examples=60, **COMMON)
def test_robust_workloads_only_produce_serializable_executions(pair, seed):
    """Robustness, observed operationally (the paper's end goal)."""
    wl, alloc = pair
    if not is_robust(wl, alloc):
        return
    trace, _ = simulate_workload(wl, alloc, exploration_config(len(wl), seed=seed))
    schedule = trace_to_schedule(trace, wl)
    assert is_conflict_serializable(schedule)


@given(sts.workloads(max_transactions=4), st.integers(0, 1_000))
@settings(max_examples=50, **COMMON)
def test_ssi_executions_always_serializable(wl, seed):
    """A_SSI admits only serializable schedules — operationally too."""
    if len(wl) == 0:
        return
    alloc = Allocation.ssi(wl)
    trace, _ = simulate_workload(wl, alloc, exploration_config(len(wl), seed=seed))
    schedule = trace_to_schedule(trace, wl)
    assert is_conflict_serializable(schedule)


@given(sts.workloads(max_transactions=4), st.integers(0, 1_000))
@settings(max_examples=50, **COMMON)
def test_optimal_allocation_executions_serializable(wl, seed):
    """Running under Algorithm 2's optimum never loses serializability."""
    if len(wl) == 0:
        return
    from repro.core.allocation import optimal_allocation

    optimum = optimal_allocation(wl)
    trace, _ = simulate_workload(wl, optimum, exploration_config(len(wl), seed=seed))
    schedule = trace_to_schedule(trace, wl)
    assert is_conflict_serializable(schedule)
