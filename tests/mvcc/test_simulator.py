"""Unit tests for repro.mvcc.simulator — the discrete-event loop."""

import pytest

from repro.core.allowed import is_allowed
from repro.core.isolation import Allocation, IsolationLevel
from repro.core.workload import workload
from repro.mvcc import (
    DiscreteEventSimulator,
    SimConfig,
    exploration_config,
    simulate_workload,
    trace_to_schedule,
)
from repro.mvcc.simulator import replicate_workload, transaction_coroutine


class TestBasicExecution:
    def test_all_instances_commit(self, write_skew):
        trace, stats = simulate_workload(write_skew, Allocation.si(write_skew))
        assert stats.commits == 2
        assert trace.committed_attempts().keys() == {1, 2}

    def test_committed_trace_is_allowed(self, write_skew):
        alloc = Allocation.si(write_skew)
        trace, _ = simulate_workload(write_skew, alloc)
        schedule = trace_to_schedule(trace, write_skew)
        assert is_allowed(schedule, alloc)

    def test_single_session_serializes(self):
        wl = workload("R1[x] W1[x]", "R2[x] W2[x]")
        _, stats = simulate_workload(wl, Allocation.rc(wl), SimConfig(sessions=1))
        assert stats.commits == 2
        assert stats.total_aborts == 0
        assert stats.blocks == 0

    def test_empty_workload(self):
        wl = workload()
        trace, stats = simulate_workload(wl, Allocation({}))
        assert stats.commits == 0 and len(trace) == 0

    def test_operations_counted(self, write_skew):
        _, stats = simulate_workload(write_skew, Allocation.rc(write_skew))
        # Two instances, two reads/writes plus a commit attempt each.
        assert stats.operations >= 6

    def test_sim_time_advances(self, write_skew):
        _, stats = simulate_workload(write_skew, Allocation.rc(write_skew))
        assert stats.sim_time > 0.0
        assert stats.throughput > 0.0

    def test_body_must_end_with_commit(self):
        wl = workload("R1[x]")

        def headless_body(txn):
            for op in txn.body:  # .body excludes the commit
                yield op

        simulator = DiscreteEventSimulator(
            wl, Allocation.rc(wl), body_factory=headless_body
        )
        with pytest.raises(RuntimeError, match="without a commit"):
            simulator.run()


class TestDeterminism:
    def test_identical_traces_given_seed(self, write_skew):
        config = SimConfig(seed=11)
        t1, s1 = simulate_workload(write_skew, Allocation.si(write_skew), config)
        t2, s2 = simulate_workload(write_skew, Allocation.si(write_skew), config)
        assert [str(e) for e in t1] == [str(e) for e in t2]
        assert s1.commits == s2.commits and s1.sim_time == s2.sim_time

    def test_seeds_explore_different_executions(self):
        wl = workload(*[f"R{i}[hot] W{i}[hot]" for i in range(1, 6)])
        times = {
            simulate_workload(wl, Allocation.si(wl), SimConfig(seed=s))[1].sim_time
            for s in range(8)
        }
        assert len(times) > 1

    def test_untraced_run_identical_apart_from_trace(self):
        """record_trace=False changes nothing but the trace itself."""
        wl = workload(*[f"R{i}[hot] W{i}[hot]" for i in range(1, 6)])
        alloc = Allocation.si(wl)
        traced, s1 = simulate_workload(wl, alloc, SimConfig(seed=3))
        untraced, s2 = simulate_workload(
            wl, alloc, SimConfig(seed=3, record_trace=False)
        )
        assert len(traced) > 0 and len(untraced) == 0
        assert s1.commits == s2.commits
        assert s1.aborts == s2.aborts
        assert s1.operations == s2.operations
        assert s1.sim_time == s2.sim_time
        assert s1.latencies == s2.latencies


class TestBlockingAndDeadlock:
    def test_fifo_wait_queue_wakes_in_order(self):
        """Three writers pile on one intent; FIFO order, no busy ticks."""
        wl = workload("W1[x] R1[y] R1[z]", "W2[x]", "W3[x]")
        config = SimConfig(sessions=3, seed=None, jitter=0.0)
        trace, stats = simulate_workload(wl, Allocation.rc(wl), config)
        assert stats.commits == 3
        assert stats.blocks >= 2
        unblocked = [e.tid for e in trace if e.kind == "unblock"]
        blocked = [e.tid for e in trace if e.kind == "block"]
        assert unblocked == blocked  # FIFO: woken in park order

    def test_deadlock_broken_golden_trace(self):
        """Opposite-order intents deadlock; the victim retries and commits."""
        wl = workload("W1[a] W1[b]", "W2[b] W2[a]")
        config = SimConfig(sessions=2, seed=0, jitter=0.0)
        trace, stats = simulate_workload(wl, Allocation.rc(wl), config)
        assert stats.commits == 2
        assert stats.aborts == {"deadlock": 1}
        assert str(trace) == (
            "B1 W1[a] B2 W2[b] BLK1[b]<-2 BLK2[a]<-1 A1 UNB2[a] W2[a] C2"
            " B1 W1[a] W1[b] C1"
        )

    def test_wake_cascades_past_aborting_waiter(self):
        """Regression: a woken waiter that immediately FCW-aborts must
        pass the freed intent on, or the rest of the queue sleeps forever
        (the run() stall guard would raise)."""
        wl = workload(
            *[f"R{i}[hot] W{i}[hot]" for i in range(1, 9)],
            *[f"W{i}[hot]" for i in range(9, 13)],
        )
        _, stats = simulate_workload(
            wl, Allocation.si(wl), SimConfig(sessions=12, seed=5, max_attempts=200)
        )
        assert stats.commits == 12

    def test_wait_time_accrues(self):
        wl = workload("W1[x] R1[y]", "W2[x]")
        _, stats = simulate_workload(
            wl, Allocation.rc(wl), SimConfig(sessions=2, seed=None, jitter=0.0)
        )
        assert stats.blocks >= 1
        assert stats.wait_time > 0.0

    def test_retry_budget_enforced_without_counting_give_up(self):
        wl = workload("R1[hot] W1[hot]", "R2[hot] W2[hot]")
        simulator = DiscreteEventSimulator(
            wl, Allocation.si(wl), SimConfig(sessions=2, seed=0, max_attempts=1)
        )
        with pytest.raises(RuntimeError, match="attempts"):
            simulator.run()
        assert simulator.stats.retries == 0

    def test_block_and_unblock_events_traced(self):
        """An unblock wakes a writer parked on that very object."""
        wl = workload("W1[a] W1[b]", "W2[b] W2[a]", "W3[a] W3[b]")
        for seed in range(5):
            trace, stats = simulate_workload(
                wl, Allocation.rc(wl), exploration_config(len(wl), seed=seed)
            )
            assert stats.commits == 3
            assert stats.blocks > 0
            parked = []
            for event in trace:
                if event.kind == "block":
                    assert event.obj is not None  # the contended object
                    assert event.observed is not None  # the intent holder
                    parked.append((event.tid, event.obj))
                elif event.kind == "unblock":
                    assert event.observed is None
                    parked.remove((event.tid, event.obj))


class TestContention:
    """Read-modify-write storms: one hot object, one session each."""

    STORM = workload(*[f"R{i}[hot] W{i}[hot]" for i in range(1, 6)])

    def test_si_rmw_storm_retries(self):
        _, stats = simulate_workload(
            self.STORM, Allocation.si(self.STORM), exploration_config(5, seed=1)
        )
        assert stats.commits == 5
        assert stats.aborts.get("first-committer-wins", 0) > 0
        assert stats.retries == stats.total_aborts

    def test_rc_rmw_storm_no_fcw_aborts(self):
        _, stats = simulate_workload(
            self.STORM, Allocation.rc(self.STORM), exploration_config(5, seed=1)
        )
        assert stats.commits == 5
        assert stats.aborts.get("first-committer-wins", 0) == 0
        assert stats.blocks > 0

    def test_retries_match_aborts_on_completed_runs(self):
        """On a run that finishes, every abort was followed by a retry."""
        deadlocks = workload("W1[a] W1[b]", "W2[b] W2[a]", "W3[a] W3[b]")
        for wl, alloc in (
            (self.STORM, Allocation.si(self.STORM)),
            (deadlocks, Allocation.rc(deadlocks)),
        ):
            for seed in range(5):
                _, stats = simulate_workload(
                    wl, alloc, exploration_config(len(wl), seed=seed)
                )
                assert stats.total_aborts > 0
                assert stats.retries == stats.total_aborts


class TestSessionDealing:
    def test_transactions_dealt_round_robin(self):
        """Session 0 takes T1 and T3, so T3 begins only after T1 commits."""
        wl = workload("R1[a]", "R2[b]", "R3[c]")
        trace, stats = simulate_workload(
            wl, Allocation.rc(wl), SimConfig(sessions=2, seed=0)
        )
        assert stats.commits == 3
        events = [str(e) for e in trace]
        assert events.index("B3") > events.index("C1")

    def test_more_sessions_than_transactions(self):
        wl = workload("R1[a]")
        _, stats = simulate_workload(wl, Allocation.rc(wl), SimConfig(sessions=4))
        assert stats.commits == 1


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("jitter", 1.1),
            ("jitter", 1.8),
            ("jitter", -0.5),
            ("jitter", float("nan")),
            ("jitter", "0.5"),
            ("sessions", 0),
            ("sessions", -3),
            ("sessions", 2.5),
            ("sessions", True),
            ("sessions", "8"),
            ("max_attempts", 0),
            ("max_attempts", 1.5),
            ("max_attempts", False),
            ("compact_every", -3),
            ("compact_every", 16.0),
            ("compact_every", True),
        ],
    )
    def test_rejects_values_the_simulator_cannot_honour(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    def test_exploration_setting_is_legal(self):
        config = exploration_config(0, seed=3)
        assert config.jitter == 1.0 and config.sessions == 1 and config.seed == 3
        assert SimConfig(jitter=0.0).jitter == 0.0
        assert SimConfig(max_attempts=5000).max_attempts == 5000

    @pytest.mark.parametrize("repeat", [0, -2])
    def test_replicate_rejects_non_positive_repeat(self, write_skew, repeat):
        with pytest.raises(ValueError, match="repeat"):
            replicate_workload(write_skew, Allocation.si(write_skew), repeat)
        with pytest.raises(ValueError, match="repeat"):
            simulate_workload(write_skew, Allocation.si(write_skew), repeat=repeat)

    def test_clock_never_runs_backwards_at_full_jitter(self):
        """At ``jitter=1.0`` no service time is negative."""

        class ClockWatch(DiscreteEventSimulator):
            def _step(self, session):
                self.clock.append(self._now)
                super()._step(session)

        wl = TestContention.STORM
        for seed in range(50):
            simulator = ClockWatch(
                wl, Allocation.si(wl), exploration_config(5, seed=seed)
            )
            simulator.clock = []
            simulator.run()
            assert simulator.clock == sorted(simulator.clock)
            assert min(simulator.stats.latencies) > 0.0


class TestLatency:
    def test_latency_recorded_per_commit(self, write_skew):
        _, stats = simulate_workload(write_skew, Allocation.rc(write_skew))
        assert len(stats.latencies) == stats.commits
        assert all(latency > 0.0 for latency in stats.latencies)

    def test_percentiles_ordered(self):
        wl = workload(*[f"R{i}[hot] W{i}[hot]" for i in range(1, 8)])
        _, stats = simulate_workload(wl, Allocation.si(wl), SimConfig(seed=2))
        p = stats.latency_percentiles()
        assert p["p50"] <= p["p95"] <= p["p99"]

    def test_empty_stats_safe(self):
        _, stats = simulate_workload(workload(), Allocation({}))
        assert stats.latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestReplication:
    def test_repeat_one_is_identity(self, write_skew):
        alloc = Allocation.si(write_skew)
        instances, inst_alloc, mapping = replicate_workload(write_skew, alloc)
        assert instances is write_skew and inst_alloc is alloc
        assert mapping == {1: 1, 2: 2}

    def test_instances_inherit_program_levels(self, write_skew):
        alloc = Allocation(
            {1: IsolationLevel.SSI, 2: IsolationLevel.RC}
        )
        instances, inst_alloc, mapping = replicate_workload(
            write_skew, alloc, repeat=3
        )
        assert len(instances) == 6
        for tid, base_tid in mapping.items():
            assert inst_alloc[tid] is alloc[base_tid]

    def test_replicated_run_commits_everything(self, write_skew):
        trace, stats = simulate_workload(
            write_skew, Allocation.si(write_skew), repeat=10
        )
        assert stats.commits == 20
        assert set(trace.committed_attempts()) == set(range(1, 21))

    def test_replicated_trace_allowed_under_instance_allocation(self, write_skew):
        alloc = Allocation.si(write_skew)
        instances, inst_alloc, _ = replicate_workload(write_skew, alloc, repeat=5)
        trace, _ = simulate_workload(write_skew, alloc, repeat=5)
        schedule = trace_to_schedule(trace, instances)
        assert is_allowed(schedule, inst_alloc)


class TestCompaction:
    def test_long_run_version_store_bounded(self):
        wl = workload("R1[hot] W1[hot]", "R2[hot] W2[hot]")
        config = SimConfig(sessions=2, seed=0, compact_every=16)
        simulator_args = replicate_workload(wl, Allocation.si(wl), repeat=200)
        simulator = DiscreteEventSimulator(
            simulator_args[0], simulator_args[1], config
        )
        simulator.run()
        assert simulator.stats.commits == 400
        # 400 committed writes on one object; compaction keeps the chain
        # far below the install count.
        assert simulator.engine.store.version_count() < 100

    def test_long_ssi_run_keeps_pool_and_object_index_bounded(self):
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]")
        config = SimConfig(sessions=2, seed=0, compact_every=16)
        instances, alloc, _ = replicate_workload(wl, Allocation.ssi(wl), repeat=200)
        simulator = DiscreteEventSimulator(instances, alloc, config)
        simulator.run()
        engine = simulator.engine
        assert simulator.stats.commits == 400
        assert simulator.stats.aborts.get("dangerous-structure", 0) > 0
        # Compaction leaves only the SSI pool in ``committed``, and the
        # object index of the pool holds no retired peer.
        pool = set(engine.committed)
        assert len(pool) < 100
        for index in (engine._ssi_readers, engine._ssi_writers):
            assert {r.tid for records in index.values() for r in records} <= pool

    def test_compaction_disabled_grows(self):
        wl = workload("R1[hot] W1[hot]", "R2[hot] W2[hot]")
        config = SimConfig(sessions=2, seed=0, compact_every=0)
        instances, alloc, _ = replicate_workload(wl, Allocation.si(wl), repeat=200)
        simulator = DiscreteEventSimulator(instances, alloc, config)
        simulator.run()
        assert simulator.engine.store.version_count() >= 400


class TestCoroutineBodies:
    def test_default_body_replays_program_order(self, write_skew):
        txn = list(write_skew)[0]
        body = transaction_coroutine(txn)
        ops = [next(body)]
        try:
            while True:
                ops.append(body.send(None))
        except StopIteration:
            pass
        assert ops == list(txn.operations)

    def test_reads_receive_versions(self):
        wl = workload("W1[x]", "R2[x]")
        observed = []

        def spy_body(txn):
            result = None
            for op in txn.operations:
                result = yield op
                if op.is_read:
                    observed.append(result)

        simulator = DiscreteEventSimulator(
            wl,
            Allocation.rc(wl),
            SimConfig(sessions=1, seed=None),
            body_factory=spy_body,
        )
        simulator.run()
        assert len(observed) == 1
        assert observed[0].writer_tid == 1  # T1's committed version

    def test_v1_projection_has_no_scheduling_events(self, write_skew):
        kinds = ("begin", "read", "write", "commit", "abort")
        trace, _ = simulate_workload(write_skew, Allocation.si(write_skew))
        operational = [e for e in trace if e.kind in kinds]
        scheduling = [e for e in trace if e.kind not in kinds]
        assert all(e.kind in ("block", "unblock") for e in scheduling)
        assert {e.kind for e in operational} <= set(kinds)
