"""Unit tests for repro.mvcc.procedures and the SmallBank application."""

import pytest

from repro.core.isolation import Allocation, IsolationLevel
from repro.core.workload import workload
from repro.mvcc.procedures import ProcedureCall, Read, Write, run_procedures
from repro.workloads.smallbank_app import (
    amalgamate,
    balance,
    conservation_invariant,
    deposit_checking,
    deposit_scenario,
    initial_state,
    skew_scenario,
    total_balance_invariant,
    transact_savings,
    write_check,
)

RC = IsolationLevel.RC
SI = IsolationLevel.SI
SSI = IsolationLevel.SSI


def incrementer(params):
    current = yield Read(params["obj"])
    yield Write(params["obj"], (current or 0) + params["by"])


class TestProcedureExecution:
    def test_single_procedure(self):
        run = run_procedures(
            [ProcedureCall(1, incrementer, {"obj": "x", "by": 5}, RC)],
            initial_state={"x": 10},
        )
        assert run.commits == 1
        assert run.final_state["x"] == 15

    def test_initial_state_defaults_to_none(self):
        seen = []

        def reader(params):
            value = yield Read("ghost")
            seen.append(value)

        run_procedures([ProcedureCall(1, reader, {}, RC)])
        assert seen == [None]

    def test_serial_chain_of_increments(self):
        calls = [
            ProcedureCall(tid, incrementer, {"obj": "x", "by": 1}, SSI)
            for tid in range(1, 6)
        ]
        run = run_procedures(calls, initial_state={"x": 0}, seed=3)
        assert run.final_state["x"] == 5  # SSI/SI: no lost updates

    def test_rc_lost_update_possible(self):
        calls = [
            ProcedureCall(tid, incrementer, {"obj": "x", "by": 1}, RC)
            for tid in range(1, 6)
        ]
        lost = 0
        for seed in range(10):
            run = run_procedures(calls, initial_state={"x": 0}, seed=seed)
            lost += run.final_state["x"] < 5
        assert lost > 0

    def test_duplicate_tids_rejected(self):
        calls = [
            ProcedureCall(1, incrementer, {"obj": "x", "by": 1}, RC),
            ProcedureCall(1, incrementer, {"obj": "y", "by": 1}, RC),
        ]
        with pytest.raises(ValueError):
            run_procedures(calls)

    def test_bad_yield_type(self):
        def broken(params):
            yield "not an action"

        with pytest.raises(TypeError):
            run_procedures([ProcedureCall(1, broken, {}, RC)])

    def test_allocation_mapping_used(self):
        calls = [ProcedureCall(1, incrementer, {"obj": "x", "by": 1})]
        wl = workload("R1[x] W1[x]")
        run = run_procedures(
            calls, allocation=Allocation.rc(wl), initial_state={"x": 0}
        )
        assert run.commits == 1

    def test_trace_records_reads_and_writes(self):
        run = run_procedures(
            [ProcedureCall(1, incrementer, {"obj": "x", "by": 1}, SI)],
            initial_state={"x": 0},
        )
        kinds = [event.kind for event in run.trace]
        assert kinds == ["begin", "read", "write", "commit"]

    def test_retry_recomputes_values(self):
        """After a FCW abort, the retried procedure sees fresh values."""
        calls = [
            ProcedureCall(1, incrementer, {"obj": "x", "by": 1}, SI),
            ProcedureCall(2, incrementer, {"obj": "x", "by": 1}, SI),
        ]
        for seed in range(10):
            run = run_procedures(calls, initial_state={"x": 0}, seed=seed)
            assert run.final_state["x"] == 2

    def test_deadlock_breaking(self):
        def two_writes(params):
            first = yield Read(params["a"])
            yield Write(params["a"], (first or 0) + 1)
            second = yield Read(params["b"])
            yield Write(params["b"], (second or 0) + 1)

        calls = [
            ProcedureCall(1, two_writes, {"a": "p", "b": "q"}, RC),
            ProcedureCall(2, two_writes, {"a": "q", "b": "p"}, RC),
        ]
        run = run_procedures(calls, seed=None)
        assert run.commits == 2


class TestSmallBankProcedures:
    def setup_method(self):
        self.init = initial_state(2)

    def run_level(self, calls, level, seed=0):
        pinned = [
            ProcedureCall(c.tid, c.body, c.params, level) for c in calls
        ]
        return run_procedures(pinned, initial_state=self.init, seed=seed)

    def test_balance_reads_only(self):
        run = self.run_level([ProcedureCall(1, balance, {"c": 1})], SI)
        assert run.final_state == self.init

    def test_deposit_and_transact(self):
        calls = [
            ProcedureCall(1, deposit_checking, {"c": 1, "amount": 50}),
            ProcedureCall(2, transact_savings, {"c": 1, "amount": -30}),
        ]
        run = self.run_level(calls, SSI)
        assert run.final_state["checking:1"] == 150
        assert run.final_state["savings:1"] == 70

    def test_transact_savings_guard(self):
        calls = [ProcedureCall(1, transact_savings, {"c": 1, "amount": -500})]
        run = self.run_level(calls, SI)
        assert run.final_state["savings:1"] == 100  # declined

    def test_amalgamate_moves_funds(self):
        calls = [ProcedureCall(1, amalgamate, {"c1": 1, "c2": 2})]
        run = self.run_level(calls, SI)
        assert run.final_state["savings:1"] == 0
        assert run.final_state["checking:1"] == 0
        assert run.final_state["checking:2"] == 300

    def test_write_check_declines_when_short(self):
        calls = [ProcedureCall(1, write_check, {"c": 1, "amount": 500})]
        run = self.run_level(calls, SI)
        assert run.final_state["checking:1"] == 100  # declined


class TestInvariants:
    def test_skew_breaks_total_under_si(self):
        init = initial_state(1)
        violations = 0
        for seed in range(20):
            calls = [
                ProcedureCall(c.tid, c.body, c.params, SI)
                for c in skew_scenario()
            ]
            run = run_procedures(calls, initial_state=init, seed=seed)
            violations += bool(total_balance_invariant(run.final_state, 1))
        assert violations > 0

    def test_ssi_preserves_total(self):
        init = initial_state(1)
        for seed in range(20):
            calls = [
                ProcedureCall(c.tid, c.body, c.params, SSI)
                for c in skew_scenario()
            ]
            run = run_procedures(calls, initial_state=init, seed=seed)
            assert total_balance_invariant(run.final_state, 1) == []

    def test_rc_breaks_conservation(self):
        init = initial_state(1)
        violations = 0
        for seed in range(20):
            calls = [
                ProcedureCall(c.tid, c.body, c.params, RC)
                for c in deposit_scenario()
            ]
            run = run_procedures(calls, initial_state=init, seed=seed)
            ok = conservation_invariant(init, run.final_state, 1, 40)
            violations += not ok
        assert violations > 0

    def test_si_preserves_conservation(self):
        init = initial_state(1)
        for seed in range(20):
            calls = [
                ProcedureCall(c.tid, c.body, c.params, SI)
                for c in deposit_scenario()
            ]
            run = run_procedures(calls, initial_state=init, seed=seed)
            assert conservation_invariant(init, run.final_state, 1, 40)

    def test_optimal_allocation_preserves_both(self):
        """Algorithm 2's optimum for the footprints keeps every invariant."""
        from repro.core.allocation import optimal_allocation

        # Footprints of the skew pair: both read both accounts, each
        # writes one — the optimum must be SSI on both.
        wl = workload("R1[s] R1[c] W1[c]", "R2[s] R2[c] W2[s]")
        optimum = optimal_allocation(wl)
        assert optimum == Allocation.ssi(wl)
        init = initial_state(1)
        for seed in range(20):
            calls = [
                ProcedureCall(c.tid, c.body, c.params, optimum[c.tid])
                for c in skew_scenario()
            ]
            run = run_procedures(calls, initial_state=init, seed=seed)
            assert total_balance_invariant(run.final_state, 1) == []
