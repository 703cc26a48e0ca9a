"""``sim-sweep``: contention sweeps on the discrete-event MVCC simulator.

One op is ``contention_sweep("smallbank", points=(4, 8, 16),
transactions=20, repeat=50, sessions=8, seed=s)``: nine cells (three
knob values times the optimal, all-SSI and all-SI allocations), each
simulating 1,000 instances.  The simulator does nearly all the work and
the analysis layers almost none, so this workload is the one a change to
the analysis should leave unchanged.  Throughput counts simulated engine
operations; latency is the wall time of one sweep.  A few sweeps per
round, rather than one long one, give the latency percentiles samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..common import derive_seed, peak_rss_mb
from . import Sample, mean_ms, ratio, resolve
from .allocate import ALLOCATION_LAYERS, allocation_layers, fold_allocation, trace_allocation

POINTS = (4, 8, 16)
TRANSACTIONS = 20
REPEAT = 50
SESSIONS = 8
STRATEGIES = ("optimal", "ssi", "si")
INSTANCES = len(POINTS) * len(STRATEGIES) * TRANSACTIONS * REPEAT
#: Sweeps generated per round (one takes about 0.7 s here).
MAX_CYCLES = 40
#: Sweeps the traced replay re-runs per round.
TRACE_CYCLES = 4


@dataclass
class _State:
    seeds: List[int]
    sweep: Callable[..., Any]
    outputs: List[Optional[List[Dict[str, Any]]]] = field(default_factory=list)


class SimSweep:
    name = "sim-sweep"
    # About 28 sweeps a run: p90 is the third slowest and moved by 4-13%
    # between runs, p80 by 3%.
    tail_percentile = 80
    pin_cycles = 1
    layers = ALLOCATION_LAYERS + tuple(
        f"mvcc.simulator.{s}.{m}" for s in STRATEGIES for m in ("ops_per_s", "abort_ratio")
    ) + ("mvcc.sweep.allocation_ms", "bench.trace_overhead")

    # -- parent ---------------------------------------------------------
    def generate(self, seed: int, rounds: int) -> List[Dict[str, Any]]:
        return [
            {"seeds": [derive_seed(seed, self.name, r, i) for i in range(MAX_CYCLES)]}
            for r in range(rounds)
        ]

    # -- child ----------------------------------------------------------
    def setup(self, inputs: Dict[str, Any], workdir) -> _State:
        from repro.mvcc.sweep import contention_sweep

        return _State(seeds=inputs["seeds"], sweep=contention_sweep)

    def cycles(self, state: _State) -> int:
        return len(state.seeds)

    def cycle(self, state: _State, index: int) -> List[Sample]:
        start = perf_counter()
        try:
            result = state.sweep(
                "smallbank",
                points=POINTS,
                transactions=TRANSACTIONS,
                repeat=REPEAT,
                sessions=SESSIONS,
                seed=state.seeds[index],
            )
        except Exception:  # e.g. an instance over its retry budget
            result = None
        seconds = perf_counter() - start
        if result is None:
            state.outputs.append(None)
            return [Sample("sweep", seconds, ops=0, tries=INSTANCES, fails=INSTANCES)]
        cells = [
            {
                "value": point.value,
                "strategy": point.strategy,
                "commits": point.commits,
                "aborts": dict(point.aborts),
                "ops": point.operations,
                "sim_time": point.sim_time,
            }
            for point in result.points
        ]
        state.outputs.append(cells)
        commits = sum(cell["commits"] for cell in cells)
        return [Sample("sweep", seconds, ops=result.total_operations, tries=INSTANCES,
                       fails=max(0, INSTANCES - commits))]

    def finish(self, state: _State, done: int) -> Dict[str, Any]:
        return {"rss_mb": peak_rss_mb()}

    def check(self, state: _State, done: int) -> Tuple[List[str], List[Any], Dict[str, Any]]:
        """Every sweep ran, and optimal out-commits all-SSI at every knob value.

        Throughput is pooled over the round's sweeps: on a base workload
        whose optimum is nearly all SSI, one 1,000-instance cell of each
        can differ by chance either way (seen once in a few hundred).
        """
        problems = []
        commits: Counter = Counter()
        sim_time: Counter = Counter()
        for index, cells in enumerate(state.outputs[:done]):
            if cells is None:
                problems.append(f"sweep {index} raised")
                continue
            for cell in cells:
                key = (cell["value"], cell["strategy"])
                commits[key] += cell["commits"]
                sim_time[key] += cell["sim_time"]
        for value in POINTS:
            optimal, ssi = (value, "optimal"), (value, "ssi")
            if sim_time[optimal] and sim_time[ssi] and (
                commits[optimal] / sim_time[optimal] < commits[ssi] / sim_time[ssi]
            ):
                problems.append(f"optimal throughput below all-SSI at customers={value}")
        pinned = [
            [[c["value"], c["strategy"], c["commits"], c["aborts"], c["ops"]] for c in cells]
            for cells in state.outputs[: self.pin_cycles]
            if cells is not None
        ]
        return problems, pinned, {}

    def trace(self, state: _State, done: int, tracer) -> Dict[str, Optional[float]]:
        from repro import Allocation, IsolationLevel
        from repro.workloads.smallbank import SmallBankConfig, smallbank_workload

        simulate = resolve("repro.mvcc.simulator", "simulate_workload")
        config_cls = resolve("repro.mvcc.simulator", "SimConfig")
        totals: Counter = Counter()
        sims = {s: Counter() for s in STRATEGIES}
        for index in range(min(done, TRACE_CYCLES)):
            seed = state.seeds[index]
            with tracer.span("op", op=index):
                for value in POINTS:
                    base = tracer.call(
                        "mvcc.sweep.build", smallbank_workload,
                        transactions=TRANSACTIONS, config=SmallBankConfig(customers=value), seed=seed,
                    )
                    with tracer.span("mvcc.sweep.allocation"):
                        _, optimum, stats = trace_allocation(tracer, base)
                    fold_allocation(totals, optimum, stats)
                    allocations = {
                        "optimal": optimum,
                        "ssi": Allocation.uniform(base, IsolationLevel.SSI),
                        "si": Allocation.uniform(base, IsolationLevel.SI),
                    }
                    # The sweep's own simulator settings.
                    config = config_cls(
                        sessions=SESSIONS, seed=seed, max_attempts=1000, record_trace=False
                    ) if config_cls is not None else None
                    for strategy in STRATEGIES:
                        outcome = tracer.call(
                            f"mvcc.simulator.{strategy}", simulate,
                            base, allocations[strategy], config, repeat=REPEAT,
                        )
                        if outcome is not None:
                            stats = outcome[1]
                            sims[strategy]["ops"] += stats.operations
                            sims[strategy]["commits"] += stats.commits
                            sims[strategy]["aborts"] += stats.total_aborts
        summary = tracer.summary()
        layers = allocation_layers(summary, totals)
        layers["mvcc.sweep.allocation_ms"] = mean_ms(summary, "mvcc.sweep.allocation")
        for strategy in STRATEGIES:
            row = summary.get(f"mvcc.simulator.{strategy}")
            counts = sims[strategy]
            seconds = row["total_ms"] / 1e3 if row else None
            layers[f"mvcc.simulator.{strategy}.ops_per_s"] = (
                counts["ops"] / seconds if seconds else None
            )
            layers[f"mvcc.simulator.{strategy}.abort_ratio"] = (
                ratio(counts["aborts"], counts["commits"] + counts["aborts"]) if row else None
            )
        return layers

    def close(self, state: _State) -> None:
        pass
