#!/usr/bin/env python3
"""Fixed-corpus agreement of the ``bitset`` and ``components`` engines.

Run with::

    PYTHONPATH=src python scripts/engine_corpus.py [--dense N] [--clustered N] [--small N]

The corpus is deterministic: ``--dense`` 40-transaction inputs (seeds
90000, 90001, ...), ``--clustered`` 12-component inputs (seeds 91000,
...) and ``--small`` 12-transaction inputs (seeds 92000, ...).  For each
input and each engine it computes

* the optimal allocation, per component (the default) and one-unit (a
  context whose plan has the whole workload as its one part), with the
  ``checks`` each run counts;
* the ``check_robustness`` witness specs of 4 random allocations;
* the ``check_robustness_delta`` specs of every one-step lowering of
  the optimum;
* on the small inputs, the whole ``enumerate_counterexamples`` order.

It exits 1 on the first input where the engines disagree on any output,
and otherwise prints the number of outputs, the probes (``checks``)
both engines counted, and a SHA-256 digest of the outputs — equal
digests mean bit-identical outputs across versions of the code.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from typing import List, Tuple

from repro import (
    AnalysisContext,
    IsolationLevel,
    POSTGRES_LEVELS,
    check_robustness,
    optimal_allocation,
)
from repro.core.isolation import Allocation
from repro.core.robustness import (
    check_robustness_delta,
    enumerate_counterexamples,
)
from repro.core.sharding import ShardPlan
from repro.workloads.generator import clustered_workload, random_workload

LADDER = sorted(IsolationLevel)


def corpus(dense: int, clustered: int, small: int):
    """``(name, workload, enumerate?)`` for every input, in a fixed order."""
    for seed in range(90000, 90000 + dense):
        yield f"dense-{seed}", random_workload(
            transactions=40, objects=40, hot_objects=8, hot_probability=0.7,
            seed=seed,
        ), False
    for seed in range(91000, 91000 + clustered):
        yield f"clustered-{seed}", clustered_workload(
            components=12, per_component=5, objects_per_component=6, seed=seed
        ), False
    for seed in range(92000, 92000 + small):
        yield f"small-{seed}", random_workload(
            transactions=12, objects=14, min_ops=2, max_ops=4, seed=seed
        ), True


def _spec(result) -> str:
    return "robust" if result.robust else str(result.counterexample.spec)


def outputs(name: str, wl, method: str, survey: bool) -> Tuple[List[str], tuple]:
    """Every output of one engine on one input, and the ``ContextStats``
    of its per-component and one-unit optimum runs."""
    lines: List[str] = []
    sharded = AnalysisContext(wl)
    one_unit = AnalysisContext(wl, plan=ShardPlan.from_components((wl.tids,)))
    optimum = optimal_allocation(wl, POSTGRES_LEVELS, method=method, context=sharded)
    unit_optimum = optimal_allocation(
        wl, POSTGRES_LEVELS, method=method, context=one_unit
    )
    lines.append(f"{name} optimum sharded {optimum}")
    lines.append(f"{name} optimum one-unit {unit_optimum}")
    rng = random.Random(name)
    for i in range(4):
        alloc = Allocation({tid: rng.choice(LADDER) for tid in wl.tids})
        result = check_robustness(wl, alloc, method=method)
        lines.append(f"{name} random {i} {alloc}: {_spec(result)}")
    for tid in wl.tids:
        rank = LADDER.index(optimum[tid])
        if rank:
            lowered = optimum.with_level(tid, LADDER[rank - 1])
            result = check_robustness_delta(wl, lowered, tid, method=method)
            lines.append(f"{name} lower T{tid}: {_spec(result)}")
    if survey:
        alloc = Allocation({tid: LADDER[tid % 3] for tid in wl.tids})
        for c in enumerate_counterexamples(
            wl, alloc, materialize_schedules=False, method=method
        ):
            lines.append(f"{name} survey {c.spec}")
    return lines, (sharded.stats, one_unit.stats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dense", type=int, default=40)
    parser.add_argument("--clustered", type=int, default=20)
    parser.add_argument("--small", type=int, default=60)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = probes = 0
    for name, wl, survey in corpus(args.dense, args.clustered, args.small):
        bitset, bitset_stats = outputs(name, wl, "bitset", survey)
        components, components_stats = outputs(name, wl, "components", survey)
        checks = [stats.checks for stats in bitset_stats]
        if bitset != components or checks != [
            stats.checks for stats in components_stats
        ]:
            for left, right in zip(bitset, components):
                if left != right:
                    print(f"MISMATCH bitset:     {left}")
                    print(f"         components: {right}")
                    break
            else:
                print(f"MISMATCH on {name}: output counts or checks differ")
            return 1
        for line in bitset:
            digest.update(line.encode() + b"\n")
        count += len(bitset)
        probes += sum(checks)
    print(
        f"engines agree: {count} outputs, {probes} checks,"
        f" digest {digest.hexdigest()}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
