"""Property tests tying the discrete-event simulator to the semantics.

The simulator is the one driver of the MVCC engine.  These properties
pin its contract:

* every committed simulator trace, converted to a formal schedule, is
  *allowed under* its allocation (Definition 2.4) at arbitrary RC/SI/SSI
  mixes — including replicated instance streams;
* a seed fully determines the execution (the reproducibility contract
  of ``--seed``);
* recording the trace or not changes nothing but the trace itself;
* ``A_SSI`` executions stay conflict serializable, operationally;
* an SSI commit aborts exactly when it completes a dangerous structure
  (no false positives, no misses);
* compaction changes nothing but the engine's memory;
* running ``repeat`` rounds without cloning gives exactly the run of
  ``replicate_workload``'s cloned instances.
"""

from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import strategies as sts
from repro.core.allowed import allowed_under
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.operations import read, write
from repro.core.serialization import is_conflict_serializable
from repro.core.transactions import Transaction
from repro.core.workload import Workload, workload
from repro.mvcc import SimConfig, exploration_config, simulate_workload, trace_to_schedule
from repro.mvcc.engine import MVCCEngine
from repro.mvcc.simulator import DiscreteEventSimulator, replicate_workload

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


def _outcome(trace, stats):
    """Everything a run reports: its trace and every statistic but wall time."""
    return (
        list(trace),
        stats.commits,
        stats.aborts,
        stats.operations,
        stats.blocks,
        stats.retries,
        stats.sim_time,
        stats.wait_time,
        stats.latencies,
        stats.series_dict(),
    )


@given(
    sts.allocated_workloads(max_transactions=4),
    st.integers(1, 4),
    st.integers(1, 8),
    st.sampled_from((0.5, 1.0)),
    st.integers(0, 10_000),
)
@settings(max_examples=150, **COMMON)
def test_clone_free_instances_run_as_their_clones(pair, repeat, sessions, jitter, seed):
    """``simulate_workload(..., repeat)`` runs each instance as a fresh tid
    over its base transaction's operations; the run equals simulating
    ``replicate_workload``'s cloned instances, trace events and all."""
    wl, alloc = pair
    config = SimConfig(sessions=sessions, seed=seed, jitter=jitter, record_trace=True)
    instances, instance_alloc, _ = replicate_workload(wl, alloc, repeat)
    clones = simulate_workload(instances, instance_alloc, config)
    replicas = simulate_workload(wl, alloc, config, repeat=repeat)
    assert len(clones[0]) > 0
    assert _outcome(*replicas) == _outcome(*clones)


@given(sts.workloads(max_transactions=4), st.integers(0, 1_000))
@settings(max_examples=40, **COMMON)
def test_simulated_ssi_executions_always_serializable(wl, seed):
    if len(wl) == 0:
        return
    alloc = Allocation.ssi(wl)
    trace, _ = simulate_workload(wl, alloc, SimConfig(seed=seed))
    schedule = trace_to_schedule(trace, wl)
    assert is_conflict_serializable(schedule)


#: Levels drawn three times in five at SSI, so runs pool enough SSI
#: peers to form dangerous structures.
SSI, SI, RC = IsolationLevel.SSI, IsolationLevel.SI, IsolationLevel.RC
SSI_HEAVY = st.sampled_from((SSI, RC, SSI, SI, SSI))
MIX_OBJECTS = ("x", "y", "z")


#: Fekete et al.'s read-only anomaly: ``R1[x]`` before ``W2[x]`` commits,
#: ``R2[y]`` before ``W3[y]``, and the reader commits last, closing
#: ``T1 -> T2 -> T3`` as ``T1``, a role random mixes reach only now and
#: then.  The explicit examples below hit it.
READ_ONLY_ANOMALY = workload("R1[x] R1[z]", "R2[y] W2[x]", "W3[y]")


@st.composite
def _link_or_any(draw, tid):
    """Half the time a rw link ``R[a] W[b]``, the shape dangerous
    structures are made of; otherwise any small transaction."""
    if draw(st.booleans()):
        a, b = draw(st.permutations(MIX_OBJECTS))[:2]
        return Transaction(tid, [read(tid, a), write(tid, b)])
    return draw(sts.transactions(tid, objects=MIX_OBJECTS))


@st.composite
def replicated_mixes(draw):
    """Two to four transactions over three objects, an SSI-heavy
    allocation, a repeat count and a seed."""
    count = draw(st.integers(2, 4))
    wl = Workload([draw(_link_or_any(tid)) for tid in range(1, count + 1)])
    alloc = Allocation({tid: draw(SSI_HEAVY) for tid in wl.tids})
    return wl, alloc, draw(st.integers(2, 4)), draw(st.integers(0, 10_000))


def _rw(reader, writer):
    """A rw-antidependency: ``reader`` observed, for an object ``writer``
    wrote, a version installed before ``writer``'s."""
    return reader is not writer and any(
        obj in reader.reads and reader.reads[obj] < writer.commit_seq
        for obj in writer.write_objects
    )


def _concurrent(a, b):
    """Formal concurrency: first(T_a) before C_b and first(T_b) before C_a."""
    return a.first_event < b.commit_event and b.first_event < a.commit_event


def _completes_by_rescan(pool, candidate):
    """Whether a dangerous structure ``T1 -> T2 -> T3`` among ``pool`` and
    ``candidate`` runs through ``candidate``, trying every triple:
    rw-antidependencies between concurrent transactions with
    ``C3 <= C1`` and ``C3 < C2``, where ``T1`` may be ``T3``."""
    members = pool + [candidate]
    for t1 in members:
        for t2 in members:
            if not (_rw(t1, t2) and _concurrent(t1, t2)):
                continue
            for t3 in members:
                if candidate is not t1 and candidate is not t2 and candidate is not t3:
                    continue
                if (
                    _rw(t2, t3)
                    and _concurrent(t2, t3)
                    and t3.commit_event <= t1.commit_event
                    and t3.commit_event < t2.commit_event
                ):
                    return True
    return False


class _AuditedEngine(MVCCEngine):
    """Records each SSI commit decision beside the rescan's answer."""

    def __init__(self):
        super().__init__()
        self.decisions = []

    def _completes_dangerous_structure(self, candidate):
        verdict = super()._completes_dangerous_structure(candidate)
        pool = [r for r in self.committed.values() if r.level is SSI]
        self.decisions.append((verdict, _completes_by_rescan(pool, candidate)))
        return verdict


@given(replicated_mixes())
@example((READ_ONLY_ANOMALY, Allocation.ssi(READ_ONLY_ANOMALY), 3, 97))
@settings(max_examples=150, **COMMON)
def test_ssi_aborts_exactly_the_commits_completing_a_dangerous_structure(mix):
    """Every SSI commit decision equals a cubic rescan of all committed SSI
    transactions plus the candidate: no false-positive abort, no miss."""
    wl, alloc, repeat, seed = mix
    instances, instance_alloc, _ = replicate_workload(wl, alloc, repeat)
    config = replace(exploration_config(len(instances), seed=seed), compact_every=0)
    simulator = DiscreteEventSimulator(instances, instance_alloc, config)
    engine = simulator.engine = _AuditedEngine()
    simulator.run()
    aborts = simulator.stats.aborts.get("dangerous-structure", 0)
    ssi_commits = sum(
        record.level is SSI for record in engine.committed.values()
    )
    assert len(engine.decisions) == ssi_commits + aborts
    assert sum(verdict for verdict, _ in engine.decisions) == aborts
    for verdict, rescan in engine.decisions:
        assert verdict == rescan, engine.decisions


@given(replicated_mixes(), st.integers(1, 4))
@example((READ_ONLY_ANOMALY, Allocation.ssi(READ_ONLY_ANOMALY), 2, 1), 3)
@settings(max_examples=60, **COMMON)
def test_compaction_changes_no_outcome(mix, sessions):
    """Compacting after every commit, every 7th, every 256th or never gives
    the same trace and the same stats.  In the explicit example a peer
    whose commit precedes every active transaction's first operation is
    still the ``T3`` of a structure a later commit closes."""
    wl, alloc, repeat, seed = mix
    runs = []
    for every in (0, 1, 7, 256):
        config = replace(exploration_config(sessions, seed=seed), compact_every=every)
        trace, stats = simulate_workload(wl, alloc, config, repeat=repeat)
        runs.append(
            (
                list(trace),
                stats.commits,
                stats.aborts,
                stats.operations,
                stats.blocks,
                stats.sim_time,
                stats.latencies,
            )
        )
    assert all(run == runs[0] for run in runs[1:])
