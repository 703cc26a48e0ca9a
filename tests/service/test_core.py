"""ServiceCore: command semantics, admission control, snapshot policy."""

import hashlib
import json
import os
import re
import stat
import threading
from collections import deque

import pytest

from repro.core.isolation import IsolationLevel
from repro.service import (
    AdmissionPolicy,
    ServiceConfig,
    ServiceCore,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)
from repro.service import snapshot as snapshot_module
from repro.service.protocol import encode_response
from repro.service.snapshot import WRITER_THREAD
from repro.workloads.generator import clustered_workload


def _core(**kwargs):
    return ServiceCore(ServiceConfig(**kwargs))


def _add(core, text, tid):
    return core.handle({"op": "add", "transaction": text, "tid": tid})


class TestBasicCommands:
    def test_hello(self):
        response = _core().handle({"op": "hello"})
        assert response["ok"] and response["server"] == "repro-serve"
        assert response["levels"] == ["RC", "SI", "SSI"]
        assert response["protocol"] == 4

    def test_add_and_allocate(self):
        core = _core()
        assert _add(core, "R[x] W[y]", 1)["admitted"]
        response = core.handle({"op": "allocate"})
        assert response["allocation"] == {"1": "RC"}
        assert response["histogram"] == {"RC": 1, "SI": 0, "SSI": 0}

    def test_add_reports_promotions(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        response = _add(core, "R[y] W[x]", 2)
        assert response["admitted"]
        assert response["promotions"] == [1]
        assert response["changed"] == {"1": "SSI", "2": "SSI"}
        assert core.handle({"op": "allocate"})["allocation"] == {"1": "SSI", "2": "SSI"}

    def test_add_embedded_subscripts(self):
        core = _core()
        response = core.handle({"op": "add", "transaction": "R7[x] W7[x]"})
        assert response["admitted"] and response["tid"] == 7

    def test_duplicate_tid_conflicts(self):
        core = _core()
        _add(core, "R[x]", 1)
        response = _add(core, "W[x]", 1)
        assert not response["ok"]
        assert response["error"]["code"] == "conflict"

    def test_remove(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[y] W[x]", 2)
        response = core.handle({"op": "remove", "tid": 2})
        assert response["ok"]
        assert response["changed"] == {"1": "RC"}
        assert core.handle({"op": "allocate"})["allocation"] == {"1": "RC"}

    def test_remove_unknown_tid(self):
        response = _core().handle({"op": "remove", "tid": 9})
        assert response["error"]["code"] == "not-found"

    def test_check_uniform(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[y] W[x]", 2)
        response = core.handle({"op": "check", "uniform": "SI"})
        assert response["ok"] and response["robust"] is False
        counterexample = response["counterexample"]
        assert counterexample["tids"] == [1, 2]
        assert "anomaly" in counterexample

    @pytest.mark.parametrize("uniform", [False, 0, "", True, 1, ["SI"], "BOGUS"])
    def test_check_uniform_must_name_a_level(self, uniform):
        """Only an absent or null ``uniform`` defaults to SI: a falsy
        non-level is refused, not read as SI."""
        core = _core()
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[y] W[x]", 2)
        response = core.handle({"op": "check", "uniform": uniform})
        assert response["error"]["code"] == "bad-request", response

    @pytest.mark.parametrize("fields", [{}, {"uniform": None}], ids=["absent", "null"])
    def test_check_uniform_defaults_to_si(self, fields):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[y] W[x]", 2)
        response = core.handle({"op": "check", **fields})
        assert response == {
            **core.handle({"op": "check", "uniform": "SI"}),
            "request_id": response["request_id"],
        }
        assert response["robust"] is False

    def test_check_explicit_allocation(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[y] W[x]", 2)
        response = core.handle(
            {"op": "check", "allocation": {"T1": "SSI", "T2": "SSI"}}
        )
        assert response["robust"] is True

    def test_check_incomplete_allocation(self):
        core = _core()
        _add(core, "R[x]", 1)
        _add(core, "R[y]", 2)
        response = core.handle({"op": "check", "allocation": {"T1": "RC"}})
        assert response["error"]["code"] == "bad-request"

    def test_status_counts_mutations(self):
        core = _core()
        _add(core, "R[x]", 1)
        _add(core, "R[y]", 2)
        core.handle({"op": "remove", "tid": 1})
        response = core.handle({"op": "status"})
        assert response["transactions"] == 1
        assert response["mutations"] == 3

    def test_stats_mirror_manager(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        response = core.handle({"op": "stats"})
        assert response["last_check_count"] == core.manager.last_check_count
        assert response["last_stats"] == core.manager.last_stats.as_dict()

    def test_metrics_accumulate(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        response = core.handle({"op": "metrics"})
        assert response["counters"]["service.requests"] >= 1
        assert response["counters"]["service.admitted"] == 1
        assert response["gauges"]["transactions"] == 1.0
        assert "service.add" in response["histograms"]
        assert "timers" not in response

    def test_internal_errors_do_not_escape(self):
        core = _core()
        core._handlers["status"] = lambda envelope: 1 / 0
        response = core.handle({"op": "status"})
        assert response["error"]["code"] == "internal"

    @pytest.mark.parametrize(
        "fields",
        [
            {"transaction": "R[x] W[y]", "tid": 0},
            {"transaction": "R[x] W[y]", "tid": -2},
            {"transaction": "R0[x] W0[y]"},
        ],
        ids=["tid-zero", "tid-negative", "subscript-zero"],
    )
    def test_nonpositive_tid_is_a_bad_request(self, fields):
        core = _core()
        response = core.handle({"op": "add", **fields})
        assert response["error"]["code"] == "bad-request"
        assert "transaction id must be positive" in response["error"]["message"]
        assert core.manager.workload.tids == ()


class TestBatch:
    def test_sequential_results(self):
        core = _core()
        response = core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": "R[x] W[y]", "tid": 1},
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                    {"op": "allocate"},
                ],
            }
        )
        assert response["ok"]
        assert response["succeeded"] == 3 and response["failed"] == 0
        assert response["results"][2]["allocation"] == {"1": "SSI", "2": "SSI"}

    def test_batch_mixes_errors(self):
        core = _core()
        response = core.handle(
            {
                "op": "batch",
                "commands": [{"op": "status"}, {"op": "nope"}, "not-an-object"],
            }
        )
        assert response["succeeded"] == 1 and response["failed"] == 2

    def test_nonpositive_tid_fails_only_its_entry(self):
        core = _core()
        response = core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": "R[x] W[y]", "tid": 1},
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 0},
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                ],
            }
        )
        assert response["ok"]
        assert response["succeeded"] == 2 and response["failed"] == 1
        assert response["results"][1]["error"]["code"] == "bad-request"
        assert sorted(core.manager.workload.tids) == [1, 2]

    def test_no_nested_batch(self):
        response = _core().handle(
            {"op": "batch", "commands": [{"op": "batch", "commands": []}]}
        )
        assert response["failed"] == 1

    @pytest.mark.parametrize(
        "policy, commands, coalesced",
        [
            (
                AdmissionPolicy(),
                [
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                    {"op": "add", "transaction": "R[q] W[q]", "tid": 3},
                ],
                2,
            ),
            (  # T2 promotes T1: the batch runs entry by entry
                AdmissionPolicy(max_promotions=0),
                [
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                    {"op": "add", "transaction": "R[q] W[q]", "tid": 3},
                ],
                0,
            ),
            (
                AdmissionPolicy(),
                [
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                    {"op": "status"},
                    {"op": "remove", "tid": 1},
                    {"op": "allocate"},
                    {"op": "nope"},
                ],
                0,
            ),
        ],
        ids=["coalesced", "split", "reads"],
    )
    def test_batch_is_one_request(self, policy, commands, coalesced):
        """Batch entries are not separate requests: one count, one
        latency sample, however the entries ran."""
        core = _core(admission=policy)
        _add(core, "R[x] W[y]", 1)
        requests = core.registry.counters["service.requests"]
        samples = core.registry.histograms["service.request"].count
        response = core.handle({"op": "batch", "commands": commands})
        assert response["ok"] and response["coalesced"] == coalesced
        assert core.registry.counters["service.requests"] == requests + 1
        assert core.registry.histograms["service.request"].count == samples + 1
        assert "request_id" not in response["results"][0]


class TestBatchCoalescing:
    """Runs of adds/removes collapse into ONE manager batch per run."""

    def test_mutation_run_is_coalesced(self):
        core = _core()
        response = core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": "R[x] W[y]", "tid": 1},
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                ],
            }
        )
        assert response["ok"] and response["failed"] == 0
        assert response["coalesced"] == 2
        assert all(r["coalesced"] for r in response["results"])
        assert response["results"][0]["admitted"]
        assert response["results"][1]["level"] == "SSI"
        assert core.handle({"op": "allocate"})["allocation"] == {
            "1": "SSI",
            "2": "SSI",
        }

    def test_coalesced_state_equals_sequential(self):
        commands = [
            {"op": "add", "transaction": "R[x] W[y]", "tid": 1},
            {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
            {"op": "remove", "tid": 1},
            {"op": "add", "transaction": "R[a] W[b]", "tid": 3},
        ]
        fast, slow = _core(), _core()
        assert fast.handle({"op": "batch", "commands": commands})["coalesced"] == 4
        for command in commands:  # the same entries, one envelope each
            assert slow.handle(command)["ok"]
        assert (
            fast.handle({"op": "allocate"})["allocation"]
            == slow.handle({"op": "allocate"})["allocation"]
        )
        assert fast.manager.components == slow.manager.components

    def test_remove_readd_spends_zero_checks(self):
        """The sustained-churn shape: a coalesced remove + identical
        re-add leaves the component content-unchanged — no re-analysis."""
        core = _core()
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[y] W[x]", 2)
        response = core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "remove", "tid": 2},
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                ],
            }
        )
        assert response["coalesced"] == 2 and response["failed"] == 0
        assert response["checks"] == 0
        assert core.handle({"op": "allocate"})["allocation"] == {
            "1": "SSI",
            "2": "SSI",
        }

    def test_admission_violation_falls_back_to_sequential(self):
        core = _core(admission=AdmissionPolicy(max_promotions=0))
        _add(core, "R[x] W[y]", 1)
        response = core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                    {"op": "add", "transaction": "R[q] W[q]", "tid": 3},
                ],
            }
        )
        # The coalesced outcome promotes T1, so the batch is rolled back
        # and replayed per entry: T2 rejected (with its witness), T3 in.
        assert response["coalesced"] == 0
        rejected, admitted = response["results"]
        assert rejected["admitted"] is False and "coalesced" not in rejected
        assert set(rejected["witness"]["tids"]) == {1, 2}
        assert admitted["admitted"] is True
        assert sorted(core.manager.workload.tids) == [1, 3]
        assert core.handle({"op": "allocate"})["allocation"] == {
            "1": "RC",
            "3": "RC",
        }

    def test_invalid_entry_falls_back_to_sequential(self):
        core = _core()
        _add(core, "R[x]", 1)
        response = core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": "R[y]", "tid": 2},
                    {"op": "add", "transaction": "W[x]", "tid": 1},  # dup
                ],
            }
        )
        assert response["coalesced"] == 0
        assert response["succeeded"] == 1 and response["failed"] == 1
        assert response["results"][1]["error"]["code"] == "conflict"
        assert sorted(core.manager.workload.tids) == [1, 2]

    def test_reads_split_the_run(self):
        """A read between mutations must observe the preceding ones, so
        it flushes the run (length-1 runs execute sequentially)."""
        core = _core()
        response = core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": "R[x]", "tid": 1},
                    {"op": "status"},
                    {"op": "add", "transaction": "R[y]", "tid": 2},
                ],
            }
        )
        assert response["coalesced"] == 0
        assert response["results"][1]["transactions"] == 1

    def test_queue_mode_disables_coalescing(self):
        core = _core(
            admission=AdmissionPolicy(max_promotions=0, mode="queue")
        )
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[y] W[x]", 2)  # parked
        assert core.queued_tids == (2,)
        response = core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": "R[a] W[a]", "tid": 3},
                    {"op": "add", "transaction": "R[b] W[b]", "tid": 4},
                ],
            }
        )
        # Coalescing would skip the parked queue's retry hooks.
        assert response["coalesced"] == 0 and response["failed"] == 0

    def test_plan_gauges_exported(self):
        """No ``plan_*`` name is exported, as a gauge or a counter."""
        core = _core()
        core.handle(
            {
                "op": "batch",
                "commands": [
                    {"op": "add", "transaction": "R[x] W[y]", "tid": 1},
                    {"op": "add", "transaction": "R[y] W[x]", "tid": 2},
                ],
            }
        )
        core.handle({"op": "remove", "tid": 2})
        metrics = core.handle({"op": "metrics"})
        gauges, counters = metrics["gauges"], metrics["counters"]
        assert not [name for name in (*gauges, *counters) if "plan_" in name]
        assert gauges["shards"] == 1.0

    def test_restored_plan_work_is_counted_once(self, tmp_path):
        """A restore moves no ``context.*`` counter, except a
        verification's one check; neither does a start-up restore."""
        core = _core()
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[q] W[q]", 2)
        core.handle({"op": "remove", "tid": 2})
        path = str(tmp_path / "plan.json")
        core.handle({"op": "snapshot", "path": path})

        def context_counters():
            counters = core.handle({"op": "metrics"})["counters"]
            return {k: v for k, v in counters.items() if k.startswith("context.")}

        before = context_counters()
        assert core.handle({"op": "restore", "path": path})["ok"]
        assert context_counters() == before
        assert core.handle({"op": "restore", "path": path, "verify": True})["ok"]
        after = context_counters()
        assert after.pop("context.checks") == before.pop("context.checks") + 1
        assert after == before
        resumed = _core(snapshot_path=path)  # a start-up restore
        assert not [
            name for name in resumed.registry.counters if name.startswith("context.")
        ]


class TestReadChecks:
    """A check run outside a mutation counts once in ``context.checks``
    and the ``checks`` rate series; ``last_stats`` stays the last
    mutation's."""

    def test_check_requests_leave_last_stats_alone(self):
        core = _core()
        texts = ("R[x] W[y]", "R[y] W[x]", "R[a] W[b]", "R[b] W[a]")
        commands = [
            {"op": "add", "transaction": text, "tid": tid}
            for tid, text in enumerate(texts, 1)
        ]
        assert core.handle({"op": "batch", "commands": commands})["ok"]
        mutation = core.manager.last_stats.as_dict()
        before = core.registry.counters["context.checks"]
        assert before == mutation["checks"]
        for _ in range(3):
            assert core.handle({"op": "check", "uniform": "SI"})["robust"] is False
        assert core.manager.last_stats.as_dict() == mutation
        stats = core.handle({"op": "stats"})
        assert stats["last_stats"] == mutation
        assert stats["last_check_count"] == mutation["checks"]
        counters = core.handle({"op": "metrics"})["counters"]
        assert counters["context.checks"] == before + 3
        assert core.series["checks"].total_value == before + 3

    def test_verified_restore_and_check_count_in_metrics(self, tmp_path):
        source = _core()
        _add(source, "R[x] W[y]", 1)
        _add(source, "R[y] W[x]", 2)
        path = str(tmp_path / "skew.json")
        source.handle({"op": "snapshot", "path": path})
        core = _core()
        assert core.handle({"op": "restore", "path": path, "verify": True})["ok"]
        assert core.handle({"op": "check", "uniform": "SSI"})["robust"] is True
        stats = core.handle({"op": "stats"})
        assert stats["last_check_count"] == stats["last_stats"]["checks"] == 0
        assert core.registry.counters["context.checks"] == 2
        assert core.series["checks"].total_value == 2

    def test_admission_witness_check_counts_once(self):
        core = _core(admission=AdmissionPolicy(max_promotions=0))
        first = _add(core, "R[x] W[y]", 1)["checks"]
        response = _add(core, "R[y] W[x]", 2)
        assert response["admitted"] is False and response["witness"]
        spent = response["checks"]  # the refused add's own checks
        rollback = core.manager.last_stats.checks
        witnessed = first + spent + 1
        assert core.registry.counters["context.checks"] == witnessed + rollback
        assert core.series["checks"].total_value == witnessed + rollback

    def test_queue_retry_checks_reach_the_series(self):
        core = _core(admission=AdmissionPolicy(max_promotions=0, mode="queue"))
        _add(core, "R[x] W[y]", 1)
        assert _add(core, "R[y] W[x]", 2)["queued"] is True
        response = core.handle({"op": "remove", "tid": 1})
        assert response["retried"] == [2]
        checks = core.registry.counters["context.checks"]
        assert core.series["checks"].total_value == checks


class TestAdmissionControl:
    def test_max_promotions_rejects(self):
        core = _core(admission=AdmissionPolicy(max_promotions=0))
        _add(core, "R[x] W[y]", 1)
        response = _add(core, "R[y] W[x]", 2)
        assert response["ok"] and response["admitted"] is False
        assert "max_promotions" in response["reason"]
        # rollback: the pre-admission allocation returns exactly
        assert response["changed"] == {}
        assert core.handle({"op": "allocate"})["allocation"] == {"1": "RC"}
        assert 2 not in core.manager.workload

    def test_rejection_carries_witness_chain(self):
        core = _core(admission=AdmissionPolicy(max_promotions=0))
        _add(core, "R[x] W[y]", 1)
        response = _add(core, "R[y] W[x]", 2)
        witness = response["witness"]
        assert witness is not None
        assert set(witness["tids"]) == {1, 2}
        assert witness["split_tid"] in (1, 2)
        assert all(len(quad) == 4 for quad in witness["chain"])

    def test_floor_rejects(self):
        # floor=0.5: at least half the transactions must sit below SSI.
        core = _core(admission=AdmissionPolicy(floor=0.5))
        _add(core, "R[x] W[y]", 1)
        response = _add(core, "R[y] W[x]", 2)  # would make both SSI
        assert response["admitted"] is False
        assert "floor" in response["reason"]

    def test_disjoint_transactions_always_admitted(self):
        core = _core(admission=AdmissionPolicy(floor=1.0, max_promotions=0))
        for tid, text in enumerate(["R[a] W[a]", "R[b] W[b]", "R[c] W[c]"], 1):
            assert _add(core, text, tid)["admitted"]

    def test_queue_mode_parks_and_retries(self):
        core = _core(
            admission=AdmissionPolicy(max_promotions=0, mode="queue")
        )
        _add(core, "R[x] W[y]", 1)
        response = _add(core, "R[y] W[x]", 2)
        assert response["admitted"] is False and response["queued"] is True
        assert core.queued_tids == (2,)
        removal = core.handle({"op": "remove", "tid": 1})
        assert removal["retried"] == [2]
        assert core.queued_tids == ()
        assert dict(core.manager.allocation.items()) == {2: IsolationLevel.RC}

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(floor=1.5)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_promotions=-1)
        with pytest.raises(ValueError):
            AdmissionPolicy(mode="drop")


class TestSnapshotCommands:
    def test_snapshot_restore_round_trip(self, tmp_path):
        snap = str(tmp_path / "state.json")
        core = _core(snapshot_path=snap)
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[y] W[x]", 2)
        before = core.handle({"op": "allocate"})["allocation"]
        assert core.handle({"op": "snapshot"})["ok"]
        core.handle({"op": "remove", "tid": 2})
        response = core.handle({"op": "restore"})
        assert response["ok"]
        assert core.handle({"op": "allocate"})["allocation"] == before

    def test_snapshot_explicit_path(self, tmp_path):
        core = _core()
        _add(core, "R[x]", 1)
        path = str(tmp_path / "explicit.json")
        response = core.handle({"op": "snapshot", "path": path})
        assert response["ok"] and response["path"] == path
        assert read_snapshot(path)["allocation"] == {"1": "RC"}

    def test_snapshot_without_path_fails(self):
        response = _core().handle({"op": "snapshot"})
        assert response["error"]["code"] == "bad-request"

    def test_restore_missing_file(self, tmp_path):
        response = _core().handle(
            {"op": "restore", "path": str(tmp_path / "nope.json")}
        )
        assert response["error"]["code"] == "snapshot-error"

    def test_restore_non_utf8_file(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_bytes(b"\xff\xfe{}")
        response = _core().handle({"op": "restore", "path": str(path)})
        assert response["error"]["code"] == "snapshot-error", response

    def test_restore_too_deeply_nested_file(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        response = _core().handle({"op": "restore", "path": str(path)})
        assert response["error"]["code"] == "snapshot-error", response

    def test_auto_snapshot_every_n_mutations(self, tmp_path):
        snap = tmp_path / "auto.json"
        core = _core(snapshot_path=str(snap), snapshot_every=2)
        _add(core, "R[a]", 1)
        assert not snap.exists()
        _add(core, "R[b]", 2)
        core.close()  # the write runs in the background; drain it
        assert snap.exists()
        assert read_snapshot(snap)["allocation"] == {"1": "RC", "2": "RC"}

    def test_resume_from_snapshot(self, tmp_path):
        snap = str(tmp_path / "resume.json")
        first = _core(snapshot_path=snap)
        _add(first, "R[x] W[y]", 1)
        _add(first, "R[y] W[x]", 2)
        first.handle({"op": "snapshot"})
        second = _core(snapshot_path=snap)
        assert second.handle({"op": "allocate"})["allocation"] == {
            "1": "SSI",
            "2": "SSI",
        }

    def test_no_resume_flag(self, tmp_path):
        snap = str(tmp_path / "resume.json")
        first = _core(snapshot_path=snap)
        _add(first, "R[x]", 1)
        first.handle({"op": "snapshot"})
        second = _core(snapshot_path=snap, resume=False)
        assert second.handle({"op": "status"})["transactions"] == 0

    def test_shutdown_snapshots_and_stops(self, tmp_path):
        snap = tmp_path / "final.json"
        core = _core(snapshot_path=str(snap))
        _add(core, "R[x]", 1)
        response = core.handle({"op": "shutdown"})
        assert response["stopping"] and core.stopping
        assert snap.exists()


    def test_unwritable_snapshot_is_a_snapshot_error(self, tmp_path):
        core = _core()
        _add(core, "R[x]", 1)
        path = str(tmp_path / "missing" / "x.json")
        response = core.handle({"op": "snapshot", "path": path})
        assert response["error"]["code"] == "snapshot-error", response
        message = response["error"]["message"]
        assert message.startswith(f"cannot write snapshot {path}: ")
        assert ".tmp." not in message  # names the snapshot, not its temp file
        assert core.registry.counters["service.snapshot_errors"] == 1
        assert "service.snapshots" not in core.registry.counters

    def test_failed_auto_snapshot_leaves_mutations_alone(self, tmp_path):
        """Each mutation answers its own result; the failed writes are
        counted and logged, and nothing counts as persisted."""
        path = tmp_path / "missing" / "auto.json"
        log = tmp_path / "events.jsonl"
        core = _core(snapshot_path=str(path), snapshot_every=2, eventlog_path=str(log))
        for tid in range(1, 5):
            response = _add(core, f"R[x{tid}]", tid)
            assert response["ok"] and response["admitted"], response
            # A status drains the writer, so each capture's write settles
            # before the next add could replace it.
            core.handle({"op": "status"})
        status = core.handle({"op": "status"})
        core.close()
        assert status["transactions"] == 4
        assert status["mutations_since_snapshot"] == 4
        counters = core.registry.counters
        assert counters["service.snapshot_errors"] == 2
        assert "service.snapshots" not in counters
        assert "service.autosnapshots" not in counters
        events = [json.loads(line) for line in log.read_text().splitlines()]
        failed = [event for event in events if event["kind"] == "snapshot"]
        assert len(failed) == 2
        for event in failed:
            assert event["auto"] and event["path"] == str(path)
            assert event["error"].startswith(f"cannot write snapshot {path}: ")


class _FsyncGate:
    """Holds the writer thread's file fsync until ``release`` is set, and
    records how many transactions each ``os.replace`` puts in place."""

    def __init__(self, monkeypatch):
        self.release = threading.Event()
        self.blocked = threading.Event()  # a background write is held
        self.replaced = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            if threading.current_thread().name == WRITER_THREAD and stat.S_ISREG(
                os.fstat(fd).st_mode
            ):
                self.blocked.set()
                self.release.wait(10)
            real_fsync(fd)

        def replace(src, dst):
            with open(src, encoding="utf-8") as handle:
                self.replaced.append(len(json.load(handle)["state"]["allocation"]))
            real_replace(src, dst)

        monkeypatch.setattr(snapshot_module.os, "fsync", fsync)
        monkeypatch.setattr(snapshot_module.os, "replace", replace)


def _started(call):
    """Run ``call()`` on a thread; returns the thread and its result box."""
    box = {}
    thread = threading.Thread(target=lambda: box.update(response=call()), daemon=True)
    thread.start()
    return thread, box


class TestBackgroundSnapshots:
    """Auto-snapshots are written by one writer thread, off the request."""

    def test_mutation_answers_while_its_snapshot_is_written(self, tmp_path, monkeypatch):
        gate = _FsyncGate(monkeypatch)
        snap = tmp_path / "auto.json"
        core = _core(snapshot_path=str(snap), snapshot_every=2)
        _add(core, "R[a]", 1)
        thread, box = _started(lambda: _add(core, "R[b]", 2))
        thread.join(5)
        assert not thread.is_alive() and box["response"]["admitted"]
        assert gate.blocked.wait(5), "no background write started"
        assert not snap.exists()
        gate.release.set()
        core.close()
        assert gate.replaced == [2]
        assert read_snapshot(snap)["allocation"] == {"1": "RC", "2": "RC"}

    def test_newest_capture_replaces_one_not_started(self, tmp_path, monkeypatch):
        gate = _FsyncGate(monkeypatch)
        snap = tmp_path / "auto.json"
        core = _core(snapshot_path=str(snap), snapshot_every=2)
        _add(core, "R[a]", 1)
        _add(core, "R[b]", 2)  # captures 2 transactions; the write is held
        assert gate.blocked.wait(5)
        for tid in range(3, 7):  # captures 4, then 6 before 4 is written
            assert _add(core, f"R[x{tid}]", tid)["ok"]
        gate.release.set()
        core.close()
        assert gate.replaced == [2, 6]  # in capture order, 4 never written
        assert len(read_snapshot(snap)["allocation"]) == 6
        assert core.registry.counters["service.autosnapshots"] == 2
        assert core.registry.counters["service.snapshots"] == 2
        assert core.registry.histograms["service.snapshot_write"].count == 2

    @pytest.mark.parametrize("op", ["snapshot", "restore", "shutdown", "status"])
    def test_command_waits_for_the_write_in_flight(self, tmp_path, monkeypatch, op):
        gate = _FsyncGate(monkeypatch)
        snap = tmp_path / "auto.json"
        core = _core(snapshot_path=str(snap), snapshot_every=2)
        _add(core, "R[a]", 1)
        _add(core, "R[b]", 2)  # captures 2 transactions; the write is held
        assert gate.blocked.wait(5)
        _add(core, "R[c]", 3)
        thread, box = _started(lambda: core.handle({"op": op}))
        thread.join(0.3)
        assert thread.is_alive(), f"{op} answered before the write in flight ended"
        gate.release.set()
        thread.join(5)
        response = box["response"]
        assert response["ok"], response
        if op == "restore":  # the file the writer finished, not a missing one
            assert response["transactions"] == 2
        elif op == "status":
            assert response["mutations_since_snapshot"] == 1
        else:
            assert gate.replaced == [2, 3]
        core.close()


#: Valid snapshot envelopes whose manager state cannot be restored.
BAD_STATES = {
    "version": {"version": 7},
    "version-true": {"version": True},
    "class-without-ssi": {"levels": ["RC", "SI"]},
    "levels-not-a-list": {"levels": 5},
    "unknown-level": {"levels": ["RC", "SI", "BOGUS"]},
    "unknown-allocated-level": {"allocation": {"1": "BOGUS", "2": "SSI"}},
    "workload": {"workload": "T1: Q[x]"},
}


class TestUnrestorableSnapshots:
    """A snapshot that cannot be restored is a ``snapshot-error``, never
    ``internal`` or ``conflict``, and fails a daemon's start-up with
    :class:`SnapshotError`; a missing file is still a fresh start."""

    @pytest.fixture
    def skew_state(self):
        core = _core()
        _add(core, "R[x] W[y]", 1)
        _add(core, "R[y] W[x]", 2)
        return core.manager.save_state()

    def _write(self, tmp_path, state):
        path = str(tmp_path / "bad.json")
        write_snapshot(path, state)
        return path

    @pytest.mark.parametrize("name", sorted(BAD_STATES))
    def test_restore_answers_snapshot_error(self, tmp_path, skew_state, name):
        path = self._write(tmp_path, {**skew_state, **BAD_STATES[name]})
        core = _core()
        _add(core, "R[a]", 5)
        response = core.handle({"op": "restore", "path": path})
        assert response["error"]["code"] == "snapshot-error", response
        assert core.handle({"op": "allocate"})["allocation"] == {"5": "RC"}

    @pytest.mark.parametrize("verify", ["false", "true", 0, 1, None])
    def test_verify_must_be_a_boolean(self, tmp_path, skew_state, verify):
        path = self._write(tmp_path, skew_state)
        core = _core()
        _add(core, "R[a]", 5)
        manager = core.manager
        response = core.handle({"op": "restore", "path": path, "verify": verify})
        assert response["error"]["code"] == "bad-request", response
        assert '"verify"' in response["error"]["message"]
        assert core.manager is manager
        assert core.handle({"op": "allocate"})["allocation"] == {"5": "RC"}

    @pytest.mark.parametrize("verify", [True, False])
    def test_boolean_verify_is_reported(self, tmp_path, skew_state, verify):
        path = self._write(tmp_path, skew_state)
        response = _core().handle({"op": "restore", "path": path, "verify": verify})
        assert response["ok"] and response["verified"] is verify
        assert response["allocation"] == {"1": "SSI", "2": "SSI"}

    def test_verified_restore_refuses_a_non_robust_allocation(
        self, tmp_path, skew_state
    ):
        state = dict(skew_state, allocation={"1": "SI", "2": "SI"})
        path = self._write(tmp_path, state)
        response = _core().handle({"op": "restore", "path": path, "verify": True})
        assert response["error"]["code"] == "snapshot-error", response
        assert "not robust" in response["error"]["message"]

    @pytest.mark.parametrize("level, robust", [("SI", False), ("SSI", True)])
    def test_verification_counts_one_check(
        self, tmp_path, skew_state, level, robust
    ):
        """Pass or fail, a verified restore runs one check and counts it
        once in ``context.checks`` and the ``checks`` series; a refused
        restore keeps the old manager."""
        state = dict(skew_state, allocation={"1": level, "2": level})
        path = self._write(tmp_path, state)
        core = _core()
        manager = core.manager
        response = core.handle({"op": "restore", "path": path, "verify": True})
        assert response["ok"] is robust, response
        assert (core.manager is manager) is not robust
        assert core.registry.counters.get("context.checks") == 1
        assert core.series["checks"].total_value == 1

    @pytest.mark.parametrize("name", sorted(BAD_STATES))
    def test_start_up_raises_snapshot_error(self, tmp_path, skew_state, name):
        path = self._write(tmp_path, {**skew_state, **BAD_STATES[name]})
        with pytest.raises(SnapshotError, match="cannot be restored"):
            _core(snapshot_path=path)

    def test_start_up_on_a_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"garbage": 1}')
        with pytest.raises(SnapshotError, match="is not a"):
            _core(snapshot_path=str(path))

    def test_missing_file_is_a_fresh_start(self, tmp_path):
        core = _core(snapshot_path=str(tmp_path / "none.json"))
        assert core.handle({"op": "status"})["transactions"] == 0


class TestWarmRestoreEquivalence:
    def test_restore_replays_identical_allocations(self, tmp_path):
        """The acceptance bar: kill/restore, then byte-identical behaviour."""
        snap = str(tmp_path / "warm.json")
        core = _core(snapshot_path=snap)
        churn = [
            ("R[x] W[y]", 1),
            ("R[y] W[x]", 2),
            ("R[a] W[b]", 3),
            ("R[b] W[a]", 4),
        ]
        for text, tid in churn:
            _add(core, text, tid)
        core.handle({"op": "snapshot"})

        survivor = _core(snapshot_path=snap)  # "restart" from disk
        follow_up = ("R[y] W[a]", 5)
        original = _add(core, *follow_up)
        restored = _add(survivor, *follow_up)
        assert original["changed"] == restored["changed"]
        assert original["checks"] == restored["checks"]
        assert (
            core.handle({"op": "allocate"})["allocation"]
            == survivor.handle({"op": "allocate"})["allocation"]
        )


_SUBSCRIPT = re.compile(r"(?<=[RWC])\d+")

#: sha256 of the response stream of :func:`_churn_stream`, per seed, as
#: protocol 3 wrote it: single adds and removes answered with the whole
#: allocation (:func:`_as_v3` rebuilds those replies).
CHURN_DIGESTS = {
    1: "0605450a9450a8d78c70e9d711800875e8c762cdbd814a96676098817fbcd74a",
    3: "dfef6a98c724975bf379cad426e363ee56b073ea10b538e0be0232ad965eab3f",
}

#: sha256 of the same streams as protocol 4 writes them.
CHURN_DIGESTS_V4 = {
    1: "046eee92fd9e55fd6e6cacb6d4dab8564710a771670318babdefcbdaafffaffe",
    3: "162d303dede230e469c10946804b5225d4006f9c8abbd40bcd113ef16b80744b",
}


def _churn_stream(core, seed, cycles=100):
    """Drive ``core`` through churn in the benchmark's ``serve-churn`` shape.

    The live set is 16 clustered components of 4 transactions.  Each
    cycle retires the 5 oldest live transactions (FIFO) and replaces
    each with the next transaction of its component, then sends a
    ``batch`` of 4 removes and 4 adds, a single ``remove``, a single
    ``add``, an ``allocate``, a ``check`` of the allocation it returned
    and a ``status``.  Yields every response, each with the manager's
    allocation just before it for a single ``remove`` or ``add`` (and
    ``None`` for the others).
    """
    components = 16
    pool = clustered_workload(
        components=components,
        per_component=4 + cycles * 5 // components + 1,
        objects_per_component=6,
        seed=seed,
    )
    streams = [deque() for _ in range(components)]
    for txn in pool:  # tid k belongs to component (k - 1) % components
        streams[(txn.tid - 1) % components].append(txn)

    def arrival(component):
        txn = streams[component].popleft()
        text = _SUBSCRIPT.sub("", str(txn))
        return {"op": "add", "transaction": text, "tid": txn.tid}

    def single(envelope):
        before = core.manager.allocation
        return core.handle(envelope), before

    initial = [arrival(c) for _ in range(4) for c in range(components)]
    live = deque((add["tid"], (add["tid"] - 1) % components) for add in initial)
    yield core.handle({"op": "batch", "commands": initial}), None
    for _ in range(cycles):
        departures = [live.popleft() for _ in range(5)]
        arrivals = [arrival(component) for _tid, component in departures]
        live.extend(
            (add["tid"], component)
            for add, (_tid, component) in zip(arrivals, departures)
        )
        removes = [{"op": "remove", "tid": tid} for tid, _component in departures]
        yield core.handle({"op": "batch", "commands": removes[:4] + arrivals[:4]}), None
        yield single(removes[4])
        yield single(arrivals[4])
        allocated = core.handle({"op": "allocate"})
        yield allocated, None
        yield core.handle({"op": "check", "allocation": allocated["allocation"]}), None
        yield core.handle({"op": "status"}), None


def _as_v3(response, before):
    """A single add or remove reply as protocol 3 wrote it.

    The allocation ``before`` the request, minus a removed tid, plus the
    reply's ``changed`` levels, in ascending tid order, takes
    ``changed``'s place as ``allocation``.
    """
    levels = {tid: level.name for tid, level in before.items()}
    if response["op"] == "remove":
        del levels[response["tid"]]
    levels.update((int(tid), name) for tid, name in response["changed"].items())
    allocation = {str(tid): levels[tid] for tid in sorted(levels)}
    return {
        ("allocation" if key == "changed" else key): (
            allocation if key == "changed" else value
        )
        for key, value in response.items()
    }


class TestChurnResponseStream:
    """The daemon's answers to a recorded churn, pinned byte for byte.

    Everything a response carries is a function of the requests, except
    its ``request_id``, the ``uptime_s`` of ``status`` and the snapshot
    path, which are dropped before hashing the wire encoding.  The
    stream is pinned as protocol 4 writes it, and with each single
    mutation's reply rebuilt as protocol 3 wrote it, which pins that
    ``changed`` is exactly what the whole allocation moved.
    """

    @pytest.mark.parametrize("seed", sorted(CHURN_DIGESTS))
    def test_digest_is_pinned(self, tmp_path, seed):
        core = _core(snapshot_path=str(tmp_path / "churn.json"), snapshot_every=64)
        v3, v4 = hashlib.sha256(), hashlib.sha256()
        responses = 0
        for response, before in _churn_stream(core, seed):
            assert response["ok"], response
            for key in ("request_id", "uptime_s", "snapshot_path"):
                response.pop(key, None)
            v4.update(encode_response(response))
            if before is not None:
                response = _as_v3(response, before)
            v3.update(encode_response(response))
            responses += 1
        core.close()
        assert responses == 1 + 6 * 100
        assert v3.hexdigest() == CHURN_DIGESTS[seed]
        assert v4.hexdigest() == CHURN_DIGESTS_V4[seed]
