"""Property tests tying the discrete-event simulator to the semantics.

The simulator is the one driver of the MVCC engine.  These properties
pin its contract:

* every committed simulator trace, converted to a formal schedule, is
  *allowed under* its allocation (Definition 2.4) at arbitrary RC/SI/SSI
  mixes — including replicated instance streams;
* a seed fully determines the execution (the reproducibility contract
  of ``--seed``);
* recording the trace or not changes nothing but the trace itself;
* ``A_SSI`` executions stay conflict serializable, operationally.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strategies as sts
from repro.core.allowed import allowed_under
from repro.core.isolation import Allocation
from repro.core.serialization import is_conflict_serializable
from repro.mvcc import SimConfig, simulate_workload, trace_to_schedule
from repro.mvcc.simulator import replicate_workload

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(sts.allocated_workloads(max_transactions=5), st.integers(0, 1_000))
@settings(max_examples=80, **COMMON)
def test_simulator_traces_are_allowed_under_their_allocation(pair, seed):
    wl, alloc = pair
    trace, stats = simulate_workload(wl, alloc, SimConfig(seed=seed))
    assert stats.commits == len(wl)
    schedule = trace_to_schedule(trace, wl)
    report = allowed_under(schedule, alloc)
    assert report.allowed, f"{report}\ntrace: {trace}"


@given(sts.allocated_workloads(max_transactions=3), st.integers(0, 1_000))
@settings(max_examples=30, **COMMON)
def test_replicated_traces_are_allowed_under_instance_allocation(pair, seed):
    """Instance streams inherit program levels and stay Def 2.4-allowed."""
    wl, alloc = pair
    instances, instance_alloc, _ = replicate_workload(wl, alloc, repeat=3)
    trace, stats = simulate_workload(wl, alloc, SimConfig(seed=seed), repeat=3)
    assert stats.commits == len(instances)
    schedule = trace_to_schedule(trace, instances)
    assert allowed_under(schedule, instance_alloc).allowed


@given(sts.allocated_workloads(max_transactions=4), st.integers(0, 1_000))
@settings(max_examples=40, **COMMON)
def test_simulator_deterministic_given_seed(pair, seed):
    wl, alloc = pair
    config = SimConfig(seed=seed)
    t1, s1 = simulate_workload(wl, alloc, config)
    t2, s2 = simulate_workload(wl, alloc, config)
    assert [str(e) for e in t1] == [str(e) for e in t2]
    assert s1.commits == s2.commits
    assert s1.aborts == s2.aborts
    assert s1.sim_time == s2.sim_time
    assert s1.latencies == s2.latencies


@given(sts.allocated_workloads(max_transactions=4), st.integers(0, 1_000))
@settings(max_examples=40, **COMMON)
def test_untraced_run_identical_apart_from_trace(pair, seed):
    wl, alloc = pair
    trace, s1 = simulate_workload(wl, alloc, SimConfig(seed=seed))
    silent, s2 = simulate_workload(
        wl, alloc, SimConfig(seed=seed, record_trace=False)
    )
    assert len(silent) == 0
    assert s1.commits == s2.commits
    assert s1.aborts == s2.aborts
    assert s1.operations == s2.operations
    assert s1.blocks == s2.blocks
    assert s1.sim_time == s2.sim_time
    assert s1.latencies == s2.latencies


@given(sts.workloads(max_transactions=4), st.integers(0, 1_000))
@settings(max_examples=40, **COMMON)
def test_simulated_ssi_executions_always_serializable(wl, seed):
    if len(wl) == 0:
        return
    alloc = Allocation.ssi(wl)
    trace, _ = simulate_workload(wl, alloc, SimConfig(seed=seed))
    schedule = trace_to_schedule(trace, wl)
    assert is_conflict_serializable(schedule)
