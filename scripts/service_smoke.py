#!/usr/bin/env python3
"""End-to-end smoke of the ``repro serve`` daemon (the CI service gate).

Run with::

    PYTHONPATH=src python scripts/service_smoke.py [--snapshot PATH]

Exercises the acceptance path of the allocation service against a real
daemon process:

1. boot ``repro serve`` on an ephemeral port with auto-snapshots;
2. sustain a scripted 200-mutation churn (adds and remove/re-add
   cycles) through the warm re-analysis path, with periodic ``check``
   probes; before the batched churn, an allocation kept from the single
   adds' ``changed`` levels must equal ``allocate``'s;
3. scrape the post-churn ``/metrics`` and require well-formed latency
   quantile and windowed-rate lines; pull the slowest request span tree
   with ``repro trace dump`` (the daemon was never started with
   ``--trace``); render two live ``repro service top`` frames; validate
   every line of the ``--eventlog`` JSON-lines mirror;
4. send hostile input: one raw line that is not UTF-8, one line of JSON
   nested deeper than the decoder recurses, and one ``batch`` of two
   valid adds around a ``tid: 0`` add; require ``bad-request`` for
   exactly the two bad lines and the bad entry, both valid adds
   admitted, the connection still answering after each line,
   ``repro_service_errors_total`` up by exactly two (the lines; a failed
   batch entry is not a failed request) and
   ``repro_service_requests_total`` up by exactly the six lines sent
   (the two hostile lines, three ``status`` probes and the batch: a
   line that is no envelope is a request too); then send a ``restore`` whose
   ``verify`` is the string ``"false"``, require ``bad-request``, and
   require the next ``allocate`` to equal the one before it;
5. take an explicit ``snapshot``, record the full ``allocate`` response;
6. SIGKILL the daemon (no goodbye), restart it resuming from the
   snapshot, and require the next ``allocate`` to be **byte-identical**
   to the pre-kill one;
7. mutate, ``restore``, verify the snapshot state returns exactly;
8. scrape ``/metrics``, send ``shutdown``, require a clean exit.

Exit code 0 means every stage held; any assertion prints and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.observability import validate_eventlog_file  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.workloads.generator import clustered_workload  # noqa: E402

MUTATIONS = 200

#: Every daemon started; the ones still running are killed on exit, so a
#: failed stage does not leave a daemon holding the port and stdout.
DAEMONS: list = []

#: Strict line shapes the post-churn scrape must contain: a latency
#: quantile from the streaming histograms and a windowed-rate gauge.
QUANTILE_LINE = re.compile(
    r'^repro_service_add_seconds\{quantile="0\.99"\} [0-9][0-9.eE+-]*$',
    re.MULTILINE,
)
RATE_LINE = re.compile(
    r"^repro_rate_requests_per_s [0-9][0-9.eE+-]*$", re.MULTILINE
)


def scrape_metrics(metrics_port: int) -> str:
    """The daemon's ``/metrics`` page."""
    url = f"http://127.0.0.1:{metrics_port}/metrics"
    return urllib.request.urlopen(url).read().decode()


def counter_total(metrics_port: int, name: str) -> float:
    """The ``repro_<name>_total`` counter (absent until its first event)."""
    line = re.compile(rf"^repro_{name}_total ([0-9][0-9.eE+-]*)$", re.MULTILINE)
    match = line.search(scrape_metrics(metrics_port))
    return float(match.group(1)) if match else 0.0


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def run_cli(*args: str) -> str:
    """Run ``repro ARGS`` as a subprocess; returns stdout, asserts exit 0."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_cli_env(),
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, (
        f"repro {' '.join(args)} exited {result.returncode}:\n{result.stderr}"
    )
    return result.stdout


def start_daemon(
    snapshot: str, port_file: Path, metrics_port: int, eventlog: str
):
    if port_file.exists():
        port_file.unlink()
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--port-file",
            str(port_file),
            "--metrics-port",
            str(metrics_port),
            "--snapshot",
            snapshot,
            "--snapshot-every",
            "25",
            "--eventlog",
            eventlog,
        ],
        env=_cli_env(),
        cwd=REPO_ROOT,
    )
    DAEMONS.append(proc)
    for _ in range(100):
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text().strip())
        if proc.poll() is not None:
            raise SystemExit(f"daemon died at startup (exit {proc.returncode})")
        time.sleep(0.1)
    proc.kill()
    raise SystemExit("daemon never wrote its port file")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--snapshot",
        default="/tmp/service-smoke.snap.json",
        help="snapshot file (uploaded as a CI artifact afterwards)",
    )
    parser.add_argument(
        "--metrics-port", type=int, default=8137, help="metrics HTTP port"
    )
    args = parser.parse_args()
    port_file = Path("/tmp/service-smoke.port")
    snap = args.snapshot
    eventlog = snap + ".events.jsonl"
    Path(snap).unlink(missing_ok=True)
    Path(eventlog).unlink(missing_ok=True)

    base = list(clustered_workload(components=6, per_component=4, seed=42))
    proc, port = start_daemon(snap, port_file, args.metrics_port, eventlog)
    print(f"[smoke] daemon up on port {port} (pid {proc.pid})")

    with ServiceClient(port=port) as client:
        hello = client.call("hello")
        assert hello["protocol"] == 4, hello

        # -- stage 2: 200-mutation churn (batched envelopes) ----------
        mutations = 0
        checks = 0
        coalesced = 0
        followed = {}  # the allocation, kept from the adds' "changed"
        for txn in base:
            response = client.call("add", transaction=str(txn), tid=txn.tid)
            assert response["admitted"], response
            mutations += 1
            checks += response["checks"]
            followed.update(response["changed"])
        allocated = client.call("allocate")["allocation"]
        assert followed == allocated, (followed, allocated)
        i = 0
        while mutations < MUTATIONS:
            commands = []
            for _ in range(4):  # 4 remove/re-add pairs per envelope
                victim = base[i % len(base)]
                commands.append({"op": "remove", "tid": victim.tid})
                commands.append(
                    {"op": "add", "transaction": str(victim), "tid": victim.tid}
                )
                i += 1
            batch = client.call("batch", commands=commands)
            assert batch["failed"] == 0, batch
            for entry in batch["results"]:
                if entry["op"] == "add":
                    assert entry["admitted"], entry
            checks += batch["checks"]
            coalesced += batch["coalesced"]
            mutations += len(commands)
            if i % 12 == 0:  # periodic robustness probe of the optimum
                probe = client.call(
                    "check", allocation=client.call("allocate")["allocation"]
                )
                assert probe["robust"], probe
        status = client.call("status")
        assert status["mutations"] >= MUTATIONS, status
        assert coalesced > 0, "batched churn must exercise coalescing"
        per_mutation = checks / mutations
        print(
            f"[smoke] {mutations} mutations sustained"
            f" ({coalesced} coalesced),"
            f" {checks} robustness checks ({per_mutation:.2f}/mutation),"
            f" {status['shards']} shards"
        )
        assert per_mutation < len(base), (
            "warm path must beat one-check-per-transaction per mutation"
        )

        # -- stage 3: live telemetry against the churned daemon -------
        text = scrape_metrics(args.metrics_port)
        assert QUANTILE_LINE.search(text), (
            "no p99 quantile line for service.add in:\n"
            + "\n".join(l for l in text.splitlines() if "service_add" in l)
        )
        assert RATE_LINE.search(text), (
            "no windowed requests-rate gauge in:\n"
            + "\n".join(l for l in text.splitlines() if "rate_" in l)
        )
        dump = json.loads(
            run_cli("trace", "dump", "--port", str(port), "--json")
        )
        assert dump["added"] >= MUTATIONS / 8, dump["added"]
        assert dump["slowest"], "flight recorder retained no slowest traces"
        span_names = {
            span["name"] for span in dump["slowest"][0]["spans"]
        }
        assert "service.request" in span_names, span_names
        print(
            f"[smoke] trace dump: {dump['added']} requests observed,"
            f" slowest is '{dump['slowest'][0]['op']}'"
            f" at {dump['slowest'][0]['duration_s'] * 1e3:.2f}ms"
            " (daemon runs without --trace)"
        )
        frames = run_cli(
            "service",
            "top",
            "--port",
            str(port),
            "--iterations",
            "2",
            "--interval",
            "0.2",
            "--no-clear",
        )
        assert "repro service top" in frames, frames[:200]
        assert "p99" in frames and "req/s" in frames, frames[:400]
        print("[smoke] service top rendered 2 live frames")
        events = validate_eventlog_file(eventlog)
        kinds = {
            json.loads(line)["kind"]
            for line in Path(eventlog).read_text().splitlines()
            if line.strip()
        }
        assert events > 0 and "request" in kinds, (events, kinds)
        print(f"[smoke] eventlog valid: {events} events, kinds {sorted(kinds)}")

        # -- stage 4: hostile input gets bad-request, nothing else ----
        errors_before = counter_total(args.metrics_port, "service_errors")
        requests_before = counter_total(args.metrics_port, "service_requests")
        non_utf8 = b'{"op": "add", "transaction": "R[x\xff] W[y]", "tid": 9001}\n'
        # 400 kB, under the 1 MiB line cap.
        nested = b'{"op": "status", "id": ' + b"[" * 200_000 + b"]" * 200_000 + b"}\n"
        with socket.create_connection(("127.0.0.1", port), timeout=30) as raw:
            with raw.makefile("rwb") as stream:
                for line in (non_utf8, nested):
                    stream.write(line)
                    stream.flush()
                    reply = json.loads(stream.readline())
                    assert reply.get("error", {}).get("code") == "bad-request", reply
                    stream.write(b'{"op": "status"}\n')
                    stream.flush()
                    assert json.loads(stream.readline())["ok"], "connection closed"
        fresh = max(txn.tid for txn in base) + 1
        batch = client.call(
            "batch",
            commands=[
                {"op": "add", "transaction": "R[h1] W[h2]", "tid": fresh},
                {"op": "add", "transaction": "R[h2] W[h1]", "tid": 0},
                {"op": "add", "transaction": "R[h3] W[h1]", "tid": fresh + 1},
            ],
        )
        assert batch["failed"] == 1 and batch["succeeded"] == 2, batch
        codes = [entry.get("error", {}).get("code") for entry in batch["results"]]
        assert codes == [None, "bad-request", None], batch
        assert batch["results"][0]["admitted"] and batch["results"][2]["admitted"]
        assert client.call("status")["transactions"] == len(base) + 2
        errors_after = counter_total(args.metrics_port, "service_errors")
        assert errors_after == errors_before + 2, (errors_before, errors_after)
        requests_after = counter_total(args.metrics_port, "service_requests")
        assert requests_after == requests_before + 6, (requests_before, requests_after)
        print(
            "[smoke] hostile input: non-UTF-8 line, too deeply nested line and"
            " tid-0 batch entry got bad-request, both valid adds admitted,"
            " 2 errors and 6 requests counted"
        )

        def allocated():
            response = client.call("allocate")
            return {k: v for k, v in response.items() if k not in ("id", "request_id")}

        before = allocated()
        reply = client.request("restore", verify="false")
        assert reply.get("error", {}).get("code") == "bad-request", reply
        assert allocated() == before, "a refused restore changed the state"
        print('[smoke] restore with "verify": "false" got bad-request, state kept')

        # -- stage 5: snapshot + record the reference allocation ------
        snapshot = client.call("snapshot")
        print(f"[smoke] snapshot: {snapshot['bytes']} bytes -> {snap}")
        reference = json.dumps(
            client.call("allocate")["allocation"], sort_keys=True
        )

    # -- stage 6: kill -9, resume, byte-identical allocations ---------
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait()
    print("[smoke] daemon SIGKILLed; restarting from the snapshot")
    proc, port = start_daemon(snap, port_file, args.metrics_port, eventlog)
    with ServiceClient(port=port) as client:
        resumed = json.dumps(
            client.call("allocate")["allocation"], sort_keys=True
        )
        assert resumed == reference, (
            f"allocation after kill/restore differs:\n"
            f"  before: {reference}\n  after:  {resumed}"
        )
        print("[smoke] post-restore allocation byte-identical")

        # -- stage 7: mutate, restore, exact return -------------------
        victim = base[0]
        client.call("remove", tid=victim.tid)
        restored = client.call("restore", verify=True)
        assert (
            json.dumps(restored["allocation"], sort_keys=True) == reference
        ), restored
        print("[smoke] explicit restore (verified) returns the exact state")

        # -- stage 8: metrics + clean shutdown ------------------------
        text = scrape_metrics(args.metrics_port)
        assert "repro_service_requests_total" in text, text[:200]
        print("[smoke] /metrics scrape OK")
        farewell = client.request("shutdown")
        assert farewell["ok"] and farewell["stopping"], farewell
    exit_code = proc.wait(timeout=30)
    assert exit_code == 0, f"daemon exited {exit_code} after shutdown"
    assert Path(snap).exists(), "shutdown must leave a final snapshot"
    print("[smoke] clean shutdown; service smoke PASSED")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        for daemon in DAEMONS:
            if daemon.poll() is None:
                daemon.kill()
