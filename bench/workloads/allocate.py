"""``allocate-dense`` and ``allocate-clustered``: one-shot optimal allocation.

One op is ``optimal_allocation(parse_workload(text), POSTGRES_LEVELS)``,
what ``repro allocate`` does for a workload file.  Both workloads use
that same entry point but load the layers differently: the dense inputs
are nearly one conflict component, so the kernel, the scans and the
refinement probes do almost all the work and sharding has nothing to
split; the clustered inputs have 12 or more components, so per-component
plan and context work matters once analysis is sharded.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..common import derive_seed, peak_rss_mb
from . import Sample, mean_ms, ratio, resolve

#: Context counters folded into the allocation-layer metrics.
STAT_KEYS = (
    "index_builds",
    "kernel_row_builds",
    "pair_hits",
    "pair_builds",
    "checks",
    "witness_hits",
)

ALLOCATION_LAYERS = (
    "core.context.build_ms",
    "core.context.index_builds",
    "core.kernel.build_ms",
    "core.kernel.row_builds",
    "core.kernel.pair_hit_ratio",
    "core.allocation.refine_ms",
    "core.allocation.checks",
    "core.allocation.witness_hit_ratio",
    "core.allocation.probe_success_ratio",
)


def trace_allocation(tracer, workload) -> Tuple[Any, Any, Dict[str, int]]:
    """Algorithm 2 on ``workload``, one span per layer it passes through.

    Returns the context, the optimum and the context's counters.  The
    spans add up to what one untraced ``optimal_allocation`` call does:
    build the context, build the kernel, refine.
    """
    from repro import POSTGRES_LEVELS, optimal_allocation

    ctx = tracer.call("core.context.build", resolve("repro", "AnalysisContext"), workload)
    if ctx is not None:
        tracer.call("core.kernel.build", getattr(ctx, "kernel", None))
    kwargs = {} if ctx is None else {"context": ctx}
    optimum = tracer.call(
        "core.allocation.refine", optimal_allocation, workload, POSTGRES_LEVELS, **kwargs
    )
    as_dict = getattr(getattr(ctx, "stats", None), "as_dict", None)
    stats = dict(as_dict()) if as_dict is not None else {}
    return ctx, optimum, stats


def fold_allocation(totals: Counter, optimum: Any, stats: Dict[str, int]) -> None:
    """Add one traced allocation's counters to the round totals."""
    from repro import IsolationLevel

    totals["ops"] += 1
    for key in STAT_KEYS:
        if key in stats:
            totals[key] += stats[key]
    if optimum is not None:
        totals["lowered"] += sum(1 for _, level in optimum.items() if level < IsolationLevel.SSI)


def allocation_layers(summary: Dict[str, Dict[str, float]], totals: Counter) -> Dict[str, Optional[float]]:
    ops = totals["ops"]
    probes = None
    if "checks" in totals and "witness_hits" in totals:
        probes = totals["checks"] + totals["witness_hits"]
    pairs = None
    if "pair_hits" in totals and "pair_builds" in totals:
        pairs = totals["pair_hits"] + totals["pair_builds"]
    return {
        "core.context.build_ms": mean_ms(summary, "core.context.build"),
        "core.context.index_builds": ratio(totals.get("index_builds"), ops),
        "core.kernel.build_ms": mean_ms(summary, "core.kernel.build"),
        "core.kernel.row_builds": ratio(totals.get("kernel_row_builds"), ops),
        "core.kernel.pair_hit_ratio": ratio(totals.get("pair_hits"), pairs),
        "core.allocation.refine_ms": mean_ms(summary, "core.allocation.refine"),
        "core.allocation.checks": ratio(totals.get("checks"), ops),
        "core.allocation.witness_hit_ratio": ratio(totals.get("witness_hits"), probes),
        "core.allocation.probe_success_ratio": ratio(totals.get("lowered"), probes),
    }


def prove_optimal(workload, optimum, method: str = "components") -> Optional[str]:
    """Why ``optimum`` is not the optimal allocation, or ``None`` if it is.

    The optimum must be robust, and lowering any single transaction by
    one level must break robustness.  Robustness is preserved when levels
    are raised (Proposition 4.1), so together these imply optimality.
    The proof runs the graph-backed ``components`` engine, independent
    of the ``bitset`` kernel the timed path runs; the verbatim ``paper``
    engine takes about 20 s per 40-transaction proof, too long for every
    round, so the tests cross-check the two on small inputs.
    """
    from repro import AnalysisContext, IsolationLevel, check_robustness

    if optimum is None or not optimum.covers(workload):
        return "no allocation covering the workload"
    ctx = AnalysisContext(workload)
    if not check_robustness(workload, optimum, method=method, context=ctx).robust:
        return "the returned allocation is not robust"
    ladder = sorted(IsolationLevel)
    for tid in workload.tids:
        rank = ladder.index(optimum[tid])
        if rank == 0:
            continue
        lowered = optimum.with_level(tid, ladder[rank - 1])
        if check_robustness(workload, lowered, method=method, context=ctx).robust:
            return f"T{tid} can be lowered to {ladder[rank - 1].name}"
    return None


@dataclass
class _State:
    texts: List[str]
    proof: List[int]
    allocate: Callable[[str], Any]
    outputs: List[Any] = field(default_factory=list)


class AllocateWorkload:
    """One family, two input generators."""

    layers = ALLOCATION_LAYERS + (
        "core.workload.parse_ms",
        "core.robustness.verify_ms",
        "core.sharding.plan_ms",
        "core.sharding.shards",
        "bench.trace_overhead",
    )

    def __init__(self, name: str, make: Callable[[int], Any], pool: int, pin_cycles: int,
                 tail_percentile: int):
        self.name = name
        self._make = make
        self._pool = pool
        self.pin_cycles = pin_cycles
        self.tail_percentile = tail_percentile

    @classmethod
    def dense(cls) -> "AllocateWorkload":
        def make(seed: int):
            from repro.workloads.generator import random_workload

            return random_workload(
                transactions=40, objects=40, hot_objects=8, hot_probability=0.7, seed=seed
            )

        return cls("allocate-dense", make, pool=400, pin_cycles=20, tail_percentile=90)

    @classmethod
    def clustered(cls) -> "AllocateWorkload":
        def make(seed: int):
            from repro.workloads.generator import clustered_workload

            return clustered_workload(
                components=12, per_component=5, objects_per_component=6, seed=seed
            )

        # p90 of its ~290 ops a run moved by 7-9% between runs, p80 by 4%.
        return cls("allocate-clustered", make, pool=200, pin_cycles=10, tail_percentile=80)

    # -- parent ---------------------------------------------------------
    def generate(self, seed: int, rounds: int) -> List[Dict[str, Any]]:
        result = []
        for r in range(rounds):
            base = derive_seed(seed, self.name, r)
            texts = [str(self._make(base + i)) for i in range(self._pool)]
            proof = sorted(random.Random(base).sample(range(self.pin_cycles), 2))
            result.append({"texts": texts, "proof": proof})
        return result

    # -- child ----------------------------------------------------------
    def setup(self, inputs: Dict[str, Any], workdir) -> _State:
        from repro import POSTGRES_LEVELS, optimal_allocation, parse_workload

        def allocate(text: str):
            return optimal_allocation(parse_workload(text), POSTGRES_LEVELS)

        return _State(texts=inputs["texts"], proof=inputs["proof"], allocate=allocate)

    def cycles(self, state: _State) -> int:
        return len(state.texts)

    def cycle(self, state: _State, index: int) -> List[Sample]:
        start = perf_counter()
        try:
            optimum = state.allocate(state.texts[index])
        except Exception:  # a failed op is counted, never fatal
            optimum = None
        seconds = perf_counter() - start
        state.outputs.append(optimum)
        return [Sample("allocate", seconds, fails=int(optimum is None))]

    def finish(self, state: _State, done: int) -> Dict[str, Any]:
        return {"rss_mb": peak_rss_mb()}

    def check(self, state: _State, done: int) -> Tuple[List[str], List[Any], Dict[str, Any]]:
        from repro import parse_workload

        components = resolve("repro.core.sharding", "conflict_components")
        problems = []
        single = 0
        for index in range(done):
            workload = parse_workload(state.texts[index])
            optimum = state.outputs[index]
            if optimum is None or not optimum.covers(workload):
                problems.append(f"input {index}: no allocation covering the workload")
            if components is not None and len(components(workload)) == 1:
                single += 1
        for index in state.proof:
            why = prove_optimal(parse_workload(state.texts[index]), state.outputs[index])
            if why is not None:
                problems.append(f"input {index}: {why}")
        pinned = [str(optimum) for optimum in state.outputs[: self.pin_cycles]]
        facts = {}
        if components is not None and done:
            facts["single_component_share"] = single / done
        return problems, pinned, facts

    def trace(self, state: _State, done: int, tracer) -> Dict[str, Optional[float]]:
        from repro import check_robustness, parse_workload

        plan_cls = resolve("repro.core.sharding", "ShardPlan")
        totals: Counter = Counter()
        shards = []
        for index in range(done):
            with tracer.span("op", op=index):
                workload = tracer.call("core.workload.parse", parse_workload, state.texts[index])
                ctx, optimum, stats = trace_allocation(tracer, workload)
            fold_allocation(totals, optimum, stats)
            # Layers outside today's op: the verifying scan, and the plan
            # a sharded path would build first.
            with tracer.span("off-path", op=index):
                if optimum is not None:
                    kwargs = {} if ctx is None else {"context": ctx}
                    tracer.call("core.robustness.verify", check_robustness, workload, optimum, **kwargs)
                plan = tracer.call("core.sharding.plan", plan_cls, workload)
            if plan is not None:
                shards.append(len(plan))
        summary = tracer.summary()
        return {
            **allocation_layers(summary, totals),
            "core.workload.parse_ms": mean_ms(summary, "core.workload.parse"),
            "core.robustness.verify_ms": mean_ms(summary, "core.robustness.verify"),
            "core.sharding.plan_ms": mean_ms(summary, "core.sharding.plan"),
            "core.sharding.shards": sum(shards) / len(shards) if shards else None,
        }

    def close(self, state: _State) -> None:
        pass
