"""Experiment SERVE — the allocation daemon under scripted churn.

Drives a transport-free :class:`repro.service.ServiceCore` (the daemon
minus sockets, so the numbers measure allocation maintenance and the
command layer, not TCP) through add/remove churn scripts and measures:

* warm vs cold restart — resuming from a snapshot against replaying the
  whole history, the number the SERVE section of EXPERIMENTS.md quotes;
* a SERVE table of checks per mutation at each size (the per-shard
  re-analysis keeps it flat while the workload grows).
"""

from __future__ import annotations

from conftest import print_table, timed
from repro.service import ServiceConfig, ServiceCore
from repro.service.snapshot import write_snapshot
from repro.workloads.generator import clustered_workload

#: Steady-state workload sizes of the churn report (transactions).
SIZES = (8, 16, 32, 64)

#: Mutations per churn run: remove+re-add pairs.
MUTATIONS = 40


def _script(size: int):
    """A churn script around a steady state of ``size`` transactions.

    Builds the steady state from a clustered workload (several conflict
    components, so per-shard re-analysis has something to skip), then
    cycles removals and re-arrivals through it.
    """
    base = list(
        clustered_workload(
            components=max(2, size // 4),
            per_component=4,
            objects_per_component=5,
            seed=size,
        )
    )[:size]
    return base


def _churn(core: ServiceCore, base, mutations: int) -> int:
    """Run the churn phase; returns the checks spent.

    Each of the ``mutations`` steps removes one transaction of ``base``
    and re-adds it, one envelope per mutation: a ``batch`` recognizes
    remove + re-add of an identical transaction as a no-op and spends
    zero checks.
    """
    checks = 0
    for i in range(mutations):
        victim = base[i % len(base)]
        for command in (
            {"op": "remove", "tid": victim.tid},
            {"op": "add", "transaction": str(victim), "tid": victim.tid},
        ):
            response = core.handle(command)
            assert response["ok"] and response.get("admitted", True), response
            checks += response["checks"]
    return checks


def test_warm_vs_cold_restart(tmp_path, capsys):
    """SERVE restart table: snapshot resume vs full history replay."""
    size = max(SIZES)
    base = _script(size)
    snap = tmp_path / "warm.json"

    core = ServiceCore(ServiceConfig())
    for txn in base:
        core.handle({"op": "add", "transaction": str(txn), "tid": txn.tid})
    write_snapshot(snap, core.manager.save_state())
    reference = core.handle({"op": "allocate"})["allocation"]

    def warm_restart():
        resumed = ServiceCore(ServiceConfig(snapshot_path=str(snap)))
        assert resumed.handle({"op": "allocate"})["allocation"] == reference
        return resumed

    def cold_restart():
        replayed = ServiceCore(ServiceConfig())
        for txn in base:
            replayed.handle(
                {"op": "add", "transaction": str(txn), "tid": txn.tid}
            )
        assert replayed.handle({"op": "allocate"})["allocation"] == reference
        return replayed

    _, cold_s = timed(cold_restart)
    warm_restart()
    _, warm_s = timed(warm_restart)

    with capsys.disabled():
        print_table(
            f"SERVE: restart latency at |T|={size}",
            ["mode", "seconds", "speedup"],
            [
                ("cold (replay history)", f"{cold_s:.4f}", "1.0x"),
                (
                    "warm (snapshot resume)",
                    f"{warm_s:.4f}",
                    f"{cold_s / warm_s:.1f}x" if warm_s else "-",
                ),
            ],
        )


def test_churn_report(capsys):
    """SERVE table: checks per mutation stay flat as |T| grows.

    The point of routing mutations through per-shard re-analysis: the
    work per mutation tracks the touched component, not the workload.
    """
    rows = []
    for size in SIZES:
        base = _script(size)
        core = ServiceCore(ServiceConfig())
        for txn in base:
            core.handle(
                {"op": "add", "transaction": str(txn), "tid": txn.tid}
            )
        checks = _churn(core, base, MUTATIONS)
        shards = core.handle({"op": "status"})["shards"]
        rows.append(
            (
                size,
                shards,
                2 * MUTATIONS,
                checks,
                f"{checks / (2 * MUTATIONS):.2f}",
            )
        )
    with capsys.disabled():
        print_table(
            "SERVE: robustness checks under churn",
            ["|T|", "shards", "mutations", "checks", "checks/mutation"],
            rows,
        )
