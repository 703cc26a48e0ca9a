"""Unit tests for repro.mvcc.trace — trace/schedule round trip."""

from repro.core.allowed import is_allowed
from repro.core.isolation import Allocation
from repro.core.operations import OP0, read, write
from repro.core.workload import workload
from repro.mvcc import exploration_config, simulate_workload, trace_to_schedule
from repro.mvcc.trace import Trace, TraceEvent


class TestTraceBasics:
    def test_event_strings(self):
        assert str(TraceEvent("read", 1, 0, "x", 0)) == "R1[x]<-0"
        assert str(TraceEvent("write", 2, 0, "x")) == "W2[x]"
        assert str(TraceEvent("commit", 3, 0)) == "C3"
        assert str(TraceEvent("abort", 3, 0)) == "A3"

    def test_committed_attempts_latest_wins(self):
        trace = Trace(
            [
                TraceEvent("begin", 1, 0),
                TraceEvent("abort", 1, 0),
                TraceEvent("begin", 1, 1),
                TraceEvent("commit", 1, 1),
            ]
        )
        assert trace.committed_attempts() == {1: 1}
        assert trace.abort_count() == 1

    def test_committed_events_drop_failed_attempts(self):
        trace = Trace(
            [
                TraceEvent("read", 1, 0, "x", 0),
                TraceEvent("abort", 1, 0),
                TraceEvent("read", 1, 1, "x", 0),
                TraceEvent("commit", 1, 1),
            ]
        )
        events = trace.committed_events()
        assert [e.attempt for e in events] == [1, 1]


class TestTraceToSchedule:
    def test_simple_round_trip(self):
        wl = workload("W1[x]", "R2[x]")
        trace, _ = simulate_workload(
            wl, Allocation.rc(wl), exploration_config(1, seed=0)
        )
        s = trace_to_schedule(trace, wl)
        assert s.version_of(read(2, "x")) == write(1, "x")
        assert is_allowed(s, Allocation.rc(wl))

    def test_initial_version_reads_map_to_op0(self):
        wl = workload("R1[x]")
        trace, _ = simulate_workload(
            wl, Allocation.si(wl), exploration_config(len(wl), seed=0)
        )
        s = trace_to_schedule(trace, wl)
        assert s.version_of(read(1, "x")) == OP0

    def test_retried_transactions_appear_once(self):
        wl = workload(*[f"R{i}[hot] W{i}[hot]" for i in range(1, 5)])
        trace, stats = simulate_workload(
            wl, Allocation.si(wl), exploration_config(len(wl), seed=2)
        )
        assert stats.total_aborts > 0  # retries happened
        s = trace_to_schedule(trace, wl)
        assert set(s.order) == set(wl.operations())

    def test_schedule_program_order_preserved(self, write_skew):
        trace, _ = simulate_workload(
            write_skew,
            Allocation.si(write_skew),
            exploration_config(len(write_skew), seed=5),
        )
        s = trace_to_schedule(trace, write_skew)
        for txn in write_skew:
            ops = txn.operations
            for a, b in zip(ops, ops[1:]):
                assert s.before(a, b)

    def test_version_order_is_commit_order(self):
        wl = workload("R1[x] W1[x]", "R2[x] W2[x]")
        trace, _ = simulate_workload(
            wl, Allocation.rc(wl), exploration_config(len(wl), seed=3)
        )
        s = trace_to_schedule(trace, wl)
        writes = s.version_order["x"]
        commits = [s.commit_position(w.transaction_id) for w in writes]
        assert commits == sorted(commits)
