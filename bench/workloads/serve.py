"""``serve-churn``: a real ``repro serve`` daemon under a steady churn.

The live set holds |T| = 64 transactions: 16 clustered components of 4.
Departures leave FIFO; each is replaced by a *new* transaction of the
same component, with a fresh tid and a text no live or departed
transaction had, so every mutation changes the workload (a remove plus
an identical re-add would be a no-op for the coalescer).  One cycle sends
five requests over one TCP connection, each waiting for its reply:

1. a ``batch`` of 4 departures and 4 arrivals (the coalesced path);
2. a single ``remove``;
3. a single ``add``;
4. an ``allocate``;
5. a ``check`` of the allocation ``allocate`` returned.

Writes run beside reads, both mutation paths run, and the snapshot the
daemon writes every 64 mutations shows up in the write tail.
"""

from __future__ import annotations

import json
import re
import socket
import subprocess
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..common import ROOT, BenchError, child_env, derive_seed, peak_rss_mb
from . import Sample, mean_ms, ratio, resolve

COMPONENTS = 16
PER_COMPONENT = 4
OBJECTS_PER_COMPONENT = 6
SNAPSHOT_EVERY = 64
#: Cycles generated per round: about twice what one round completes today.
MAX_CYCLES = 2000
#: Candidate transactions drawn per component; duplicates of an earlier
#: text are skipped, so this exceeds the arrivals a round can need.
POOL_PER_COMPONENT = 1100
CHECKPOINT_EVERY = 100
#: Cycles the traced replays re-run per round (they run three times over).
TRACE_CYCLES = 400
WRITES = ("batch", "remove", "add")
READS = ("allocate", "check")

_TID = re.compile(r"(?<=[RWC])\d+")


def text_of(txn) -> str:
    """A transaction's operations without tid subscripts (its wire text)."""
    return _TID.sub("", str(txn))


def churn_inputs(seed: int, max_cycles: int = MAX_CYCLES) -> Dict[str, Any]:
    """The initial live set and the cycles of one round, from ``seed``."""
    from repro.workloads.generator import clustered_workload

    pool = clustered_workload(
        components=COMPONENTS,
        per_component=POOL_PER_COMPONENT,
        objects_per_component=OBJECTS_PER_COMPONENT,
        seed=seed,
    )
    streams: List[deque] = [deque() for _ in range(COMPONENTS)]
    for txn in pool:  # tid k belongs to component (k - 1) % COMPONENTS
        streams[(txn.tid - 1) % COMPONENTS].append(txn)
    seen: set = set()

    def draw(component: int) -> Optional[List[Any]]:
        stream = streams[component]
        while stream:
            txn = stream.popleft()
            text = text_of(txn)
            if text not in seen:
                seen.add(text)
                return [txn.tid, text]
        return None

    live: deque = deque()
    initial = []
    for _ in range(PER_COMPONENT):
        for component in range(COMPONENTS):
            entry = draw(component)
            initial.append(entry)
            live.append((entry[0], component))
    cycles = []
    for _ in range(max_cycles):
        departures = [live.popleft() for _ in range(5)]
        arrivals = [draw(component) for _, component in departures]
        if None in arrivals:
            break
        live.extend((tid, component) for (tid, _), (_, component) in zip(arrivals, departures))
        cycles.append({"remove": [tid for tid, _ in departures], "add": arrivals})
    return {"initial": initial, "cycles": cycles}


def cycle_mutations(cycle: Dict[str, Any]) -> List[List[Tuple[str, Any]]]:
    """A cycle's mutations as request groups: the batch, the remove, the add."""
    batch = [("remove", tid) for tid in cycle["remove"][:4]]
    batch += [("add", entry) for entry in cycle["add"][:4]]
    return [batch, [("remove", cycle["remove"][4])], [("add", cycle["add"][4])]]


def _envelope(kind: str, value: Any) -> Dict[str, Any]:
    if kind == "remove":
        return {"op": "remove", "tid": value}
    return {"op": "add", "transaction": value[1], "tid": value[0]}


def cycle_lines(cycle: Dict[str, Any]) -> List[str]:
    """The three mutation requests of a cycle as protocol lines."""
    batch, (remove,), (add,) = cycle_mutations(cycle)
    envelopes = [
        {"op": "batch", "commands": [_envelope(*m) for m in batch]},
        _envelope(*remove),
        _envelope(*add),
    ]
    return [json.dumps(e) + "\n" for e in envelopes]


def _admitted(response: Dict[str, Any]) -> bool:
    if not response.get("ok"):
        return False
    if response.get("op") == "batch":
        return response.get("failed") == 0 and all(
            r.get("ok") and r.get("admitted", True) for r in response.get("results", ())
        )
    return response.get("admitted", True) is True


def _live_sets(inputs: Dict[str, Any], done: int, every: int):
    """Yield ``(cycle, {tid: text})`` after each ``every``-th completed cycle."""
    live = {tid: text for tid, text in inputs["initial"]}
    for index in range(done):
        for group in cycle_mutations(inputs["cycles"][index]):
            for kind, value in group:
                if kind == "remove":
                    del live[value]
                else:
                    live[value[0]] = value[1]
        if index % every == 0:
            yield index, dict(live)


@dataclass
class _State:
    inputs: Dict[str, Any]
    workdir: Any
    lines: List[List[bytes]]
    proc: Any = None
    log: Any = None
    sock: Any = None
    rfile: Any = None
    checkpoints: List[Tuple[int, Dict[str, str]]] = field(default_factory=list)
    mutations: int = 0
    checks: int = 0
    rtt_total: float = 0.0
    requests: int = 0


class ServeChurn:
    name = "serve-churn"
    tail_percentile = 99
    pin_cycles = 2 * CHECKPOINT_EVERY + 1
    groups = {"write": WRITES, "read": READS}
    layers = (
        "core.context.index_builds",
        "core.robustness.check_ms",
        "core.sharding.upkeep_us",
        "core.sharding.merges_per_mutation",
        "core.sharding.splits_per_mutation",
        "core.sharding.reuse_ratio",
        "core.sharding.shards",
        "core.incremental.batch_ms",
        "core.incremental.single_ms",
        "core.incremental.checks_per_mutation",
        "service.protocol.parse_us",
        "service.protocol.encode_us",
        "service.core.write_ms",
        "service.core.read_ms",
        "service.core.self_ms",
        "service.daemon.server_p50_ms",
        "service.daemon.server_p99_ms",
        "service.daemon.transport_ms",
        "service.snapshot.write_ms",
        "service.snapshot.bytes",
        "service.request.write_p99_ms",
        "service.request.read_p99_ms",
        "bench.trace_overhead",
    )

    # -- parent ---------------------------------------------------------
    def generate(self, seed: int, rounds: int) -> List[Dict[str, Any]]:
        return [churn_inputs(derive_seed(seed, self.name, r)) for r in range(rounds)]

    # -- child ----------------------------------------------------------
    def setup(self, inputs: Dict[str, Any], workdir) -> _State:
        lines = [[line.encode("utf-8") for line in cycle_lines(c)] for c in inputs["cycles"]]
        state = _State(inputs=inputs, workdir=workdir, lines=lines)
        try:
            self._start(state)
        except BaseException:
            self.close(state)
            raise
        return state

    def _start(self, state: _State) -> None:
        """Boot the daemon and admit the live set over the socket."""
        workdir = state.workdir
        port_file = workdir / "serve.port"
        state.log = open(workdir / "serve.log", "wb")
        state.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--port-file", str(port_file),
                "--snapshot", str(workdir / "serve.snap.json"),
                "--snapshot-every", str(SNAPSHOT_EVERY),
                "--no-resume",
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=state.log,
            stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 60
        while True:
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                break
            if state.proc.poll() is not None:
                raise BenchError(f"repro serve exited with {state.proc.returncode} at start-up")
            if time.monotonic() > deadline:
                raise BenchError("repro serve never wrote its port file")
            time.sleep(0.005)
        state.sock = socket.create_connection(("127.0.0.1", int(text)), timeout=60)
        state.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        state.rfile = state.sock.makefile("rb")
        admit = {
            "op": "batch",
            "commands": [_envelope("add", entry) for entry in state.inputs["initial"]],
        }
        _, response = self._request(state, (json.dumps(admit) + "\n").encode("utf-8"))
        if not _admitted(response):
            raise BenchError(f"the daemon refused the initial live set: {response}")

    def _request(self, state: _State, line: bytes) -> Tuple[float, Dict[str, Any]]:
        start = perf_counter()
        state.sock.sendall(line)
        raw = state.rfile.readline()
        seconds = perf_counter() - start
        if not raw:
            raise BenchError("repro serve closed the connection")
        state.rtt_total += seconds
        state.requests += 1
        return seconds, json.loads(raw)

    def cycles(self, state: _State) -> int:
        return len(state.lines)

    def cycle(self, state: _State, index: int) -> List[Sample]:
        samples = []
        for kind, line in zip(WRITES, state.lines[index]):
            seconds, response = self._request(state, line)
            samples.append(Sample(kind, seconds, fails=int(not _admitted(response))))
            state.checks += int(response.get("checks") or 0)
        state.mutations += 10
        seconds, response = self._request(state, b'{"op": "allocate"}\n')
        allocation = response.get("allocation") or {}
        samples.append(Sample("allocate", seconds, fails=int(not response.get("ok"))))
        if index % CHECKPOINT_EVERY == 0:
            state.checkpoints.append((index, allocation))
        line = (json.dumps({"op": "check", "allocation": allocation}) + "\n").encode("utf-8")
        seconds, response = self._request(state, line)
        robust = bool(response.get("ok")) and response.get("robust") is True
        samples.append(Sample("check", seconds, fails=int(not robust)))
        return samples

    def finish(self, state: _State, done: int) -> Dict[str, Any]:
        rtt_ms = state.rtt_total / state.requests * 1e3
        _, metrics = self._request(state, b'{"op": "metrics"}\n')
        histogram = (metrics.get("histograms") or {}).get("service.request") or {}
        rss_mb = peak_rss_mb(state.proc.pid)
        self._request(state, b'{"op": "shutdown"}\n')
        state.proc.wait(timeout=60)
        layers: Dict[str, Optional[float]] = {}
        if histogram:
            layers = {
                "service.daemon.server_p50_ms": histogram["p50"] * 1e3,
                "service.daemon.server_p99_ms": histogram["p99"] * 1e3,
                "service.daemon.transport_ms": rtt_ms - histogram["mean"] * 1e3,
            }
        return {
            "rss_mb": rss_mb,  # the daemon's, not this client's
            "mutations": state.mutations,
            "layers": layers,
        }

    def check(self, state: _State, done: int) -> Tuple[List[str], List[Any], Dict[str, Any]]:
        from repro import POSTGRES_LEVELS, Workload, optimal_allocation, parse_transaction

        problems = []
        if state.checks == 0:
            problems.append("the churn spent no robustness checks: it did no analysis")
        served = dict(state.checkpoints)
        for index, live in _live_sets(state.inputs, done, CHECKPOINT_EVERY):
            workload = Workload(parse_transaction(text, tid=tid) for tid, text in live.items())
            optimum = optimal_allocation(workload, POSTGRES_LEVELS)
            expected = {str(tid): level.name for tid, level in optimum.items()}
            if served.get(index) != expected:
                problems.append(f"cycle {index}: the daemon's allocation is not the optimum")
        pinned = [alloc for index, alloc in state.checkpoints if index < self.pin_cycles]
        facts = {"checks_per_mutation": state.checks / state.mutations if state.mutations else 0.0}
        return problems, pinned, facts

    # -- traced replay --------------------------------------------------
    def trace(self, state: _State, done: int, tracer) -> Dict[str, Optional[float]]:
        cycles = state.inputs["cycles"][: min(done, TRACE_CYCLES)]
        totals: Counter = Counter()
        self._replay_service(state, cycles, tracer)
        self._replay_manager(state, cycles, tracer, totals)
        shards = self._replay_plan(state, cycles, tracer, totals)
        summary = tracer.summary()
        mutations = totals["mutations"]

        def total(name: str) -> Optional[float]:
            row = summary.get(name)
            return row["total_ms"] if row else None

        parts = [total(n) for n in (
            "service.core.write", "service.core.read", "core.incremental.batch",
            "core.incremental.single", "core.robustness.check",
        )]
        self_ms = None
        if None not in parts:
            snapshot_ms = total("service.snapshot.write") or 0.0
            handled = parts[0] + parts[1]
            self_ms = (handled - parts[2] - parts[3] - parts[4] - snapshot_ms) / (5 * len(cycles))
        return {
            "service.protocol.parse_us": mean_ms(summary, "service.protocol.parse", 1e3),
            "service.protocol.encode_us": mean_ms(summary, "service.protocol.encode", 1e3),
            "service.core.write_ms": mean_ms(summary, "service.core.write"),
            "service.core.read_ms": mean_ms(summary, "service.core.read"),
            "service.core.self_ms": self_ms,
            "core.incremental.batch_ms": mean_ms(summary, "core.incremental.batch"),
            "core.incremental.single_ms": mean_ms(summary, "core.incremental.single"),
            "core.incremental.checks_per_mutation": ratio(totals.get("checks"), mutations),
            "core.context.index_builds": ratio(totals.get("index_builds"), mutations),
            "core.robustness.check_ms": mean_ms(summary, "core.robustness.check"),
            "service.snapshot.write_ms": mean_ms(summary, "service.snapshot.write"),
            "service.snapshot.bytes": ratio(totals.get("snapshot_bytes"), totals.get("snapshots")),
            "core.sharding.upkeep_us": mean_ms(summary, "core.sharding.upkeep", 1e3),
            "core.sharding.merges_per_mutation": ratio(totals.get("plan_merges"), mutations),
            "core.sharding.splits_per_mutation": ratio(totals.get("plan_splits"), mutations),
            "core.sharding.reuse_ratio": ratio(totals.get("plan_reuse"), totals.get("removals")),
            "core.sharding.shards": sum(shards) / len(shards) if shards else None,
        }

    def _replay_service(self, state: _State, cycles, tracer) -> None:
        """The same requests through an in-process ``ServiceCore``."""
        from repro.service import ServiceConfig, ServiceCore
        from repro.service.protocol import encode_response, parse_request

        core = ServiceCore(
            ServiceConfig(
                port=0,
                snapshot_path=str(state.workdir / "replay.snap.json"),
                snapshot_every=SNAPSHOT_EVERY,
                resume=False,
            )
        )
        core.handle({"op": "batch", "commands": [_envelope("add", e) for e in state.inputs["initial"]]})
        ops = iter(range(5 * len(cycles)))

        def replay(group: str, line: str) -> Dict[str, Any]:
            with tracer.span("op", op=next(ops)):
                envelope = tracer.call("service.protocol.parse", parse_request, line)
                response = tracer.call(f"service.core.{group}", core.handle, envelope)
                tracer.call("service.protocol.encode", encode_response, response)
            return response or {}

        for cycle in cycles:
            for line in cycle_lines(cycle):
                replay("write", line)
            allocation = replay("read", '{"op": "allocate"}').get("allocation")
            replay("read", json.dumps({"op": "check", "allocation": allocation}))

    def _replay_manager(self, state: _State, cycles, tracer, totals: Counter) -> None:
        """The cycles' mutations straight into an ``AllocationManager``.

        Single mutations go through ``apply_batch([m])``; a snapshot is
        written every 64 mutations, as the daemon does; the ``check``
        request's analysis runs on the manager's context.
        """
        from repro import AllocationManager, POSTGRES_LEVELS, check_robustness, parse_transaction

        write_snapshot = resolve("repro.service.snapshot", "write_snapshot")
        manager = AllocationManager(POSTGRES_LEVELS)

        def txn(entry):
            return parse_transaction(entry[1], tid=entry[0])

        manager.apply_batch([("add", txn(entry)) for entry in state.inputs["initial"]])
        since = 0  # the daemon snapshots right after admitting the live set
        path = state.workdir / "replay-manager.snap.json"
        for cycle in cycles:
            for group in cycle_mutations(cycle):
                batch = [(k, txn(v) if k == "add" else v) for k, v in group]
                name = "core.incremental.batch" if len(batch) > 1 else "core.incremental.single"
                tracer.call(name, manager.apply_batch, batch)
                last = getattr(manager, "last_stats", None)
                if last is not None:
                    totals["checks"] += last.checks
                    totals["index_builds"] += last.index_builds
                totals["mutations"] += len(batch)
                since += len(batch)
                if since >= SNAPSHOT_EVERY:
                    since = 0
                    size = tracer.call(
                        "service.snapshot.write",
                        lambda: write_snapshot(path, manager.save_state()),
                    )
                    if size is not None:
                        totals["snapshots"] += 1
                        totals["snapshot_bytes"] += size
            tracer.call(
                "core.robustness.check", check_robustness,
                manager.workload, manager.allocation, context=manager.context,
            )

    def _replay_plan(self, state: _State, cycles, tracer, totals: Counter) -> List[int]:
        """The cycles' mutations through a ``DynamicShardPlan`` alone."""
        from repro import Workload, parse_transaction

        plan_cls = resolve("repro.core.sharding", "DynamicShardPlan")
        if plan_cls is None:
            tracer.missing.add("core.sharding.upkeep")
            return []
        plan = plan_cls(Workload(parse_transaction(t, tid=tid) for tid, t in state.inputs["initial"]))
        start = dict(plan.stats.as_dict())
        shards = []
        for cycle in cycles:
            for group in cycle_mutations(cycle):
                for kind, value in group:
                    if kind == "add":
                        tracer.call("core.sharding.upkeep", plan.add, parse_transaction(value[1], tid=value[0]))
                    else:
                        tracer.call("core.sharding.upkeep", plan.remove, value)
                        totals["removals"] += 1
            shards.append(len(plan))
        end = plan.stats.as_dict()
        for key in ("plan_merges", "plan_splits", "plan_reuse"):
            if key in end:
                totals[key] += end[key] - start.get(key, 0)
        return shards

    def close(self, state: _State) -> None:
        """Stop the daemon if a round ended early, and release the socket."""
        if state.rfile is not None:
            state.rfile.close()
        if state.sock is not None:
            state.sock.close()
        if state.proc is not None and state.proc.poll() is None:
            state.proc.kill()
            state.proc.wait(timeout=30)
        if state.log is not None:
            state.log.close()
