#!/usr/bin/env python3
"""Fixed-corpus agreement of the bitset kernel and the ``components`` reference.

Run with::

    PYTHONPATH=src python scripts/engine_corpus.py [--dense N] [--clustered N] [--small N]

The corpus is deterministic: ``--dense`` 40-transaction inputs (seeds
90000, 90001, ...), ``--clustered`` 12-component inputs (seeds 91000,
...) and ``--small`` 12-transaction inputs (seeds 92000, ...).  For each
input it computes, on the production entry points (the bitset kernel)
and on the ``components`` engine of :mod:`repro.core.reference`,

* the optimal allocation with the ``checks`` its run counts, in
  production both one-unit (one context over the whole workload) and
  per component (one context per conflict component's sub-workload,
  the optima composed);
* the witness specs of 4 random allocations;
* the delta-scoped witness specs of every one-step lowering of the
  optimum;
* on the small inputs, the whole survey in ``enumerate_counterexamples``
  order.

The two implementations share no scan and no refinement loop.  The
script exits 1 on the first input where they disagree on any output,
and otherwise prints the number of outputs, the probes (``checks``)
the production runs counted, and a SHA-256 digest of the outputs —
equal digests mean bit-identical outputs across versions of the code.
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
from repro.core import reference
from repro.core.isolation import Allocation
from repro.core.robustness import (
    check_robustness_delta,
    enumerate_counterexamples,
)
from repro.core.sharding import conflict_components
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


def _spec(spec) -> str:
    return "robust" if spec is None else str(spec)


def _random_allocations(name: str, wl) -> List[Allocation]:
    rng = random.Random(name)
    return [
        Allocation({tid: rng.choice(LADDER) for tid in wl.tids}) for _ in range(4)
    ]


def _lowerings(wl, optimum) -> List[Tuple[int, Allocation]]:
    """Every one-step lowering of ``optimum``, as ``(tid, allocation)``."""
    lowered = []
    for tid in wl.tids:
        rank = LADDER.index(optimum[tid])
        if rank:
            lowered.append((tid, optimum.with_level(tid, LADDER[rank - 1])))
    return lowered


def _survey_allocation(wl) -> Allocation:
    return Allocation({tid: LADDER[tid % 3] for tid in wl.tids})


def per_component(wl) -> Tuple[Allocation, int]:
    """The optimum composed from one context per conflict component, and
    the ``checks`` those runs counted."""
    levels = {}
    checks = 0
    for members in conflict_components(wl):
        part = wl.restricted_to(members)
        context = AnalysisContext(part)
        optimum = optimal_allocation(part, POSTGRES_LEVELS, context=context)
        levels.update(optimum.items())
        checks += context.stats.checks
    return Allocation(levels), checks


def production(name: str, wl, survey: bool) -> Tuple[List[str], List[int]]:
    """Every production output on one input, and the ``checks`` of its
    per-component and one-unit optimum runs."""
    lines: List[str] = []
    one_unit = AnalysisContext(wl)
    optimum, sharded_checks = per_component(wl)
    unit_optimum = optimal_allocation(wl, POSTGRES_LEVELS, context=one_unit)
    lines.append(f"{name} optimum sharded {optimum}")
    lines.append(f"{name} optimum one-unit {unit_optimum}")
    for i, alloc in enumerate(_random_allocations(name, wl)):
        result = check_robustness(wl, alloc)
        spec = None if result.robust else result.counterexample.spec
        lines.append(f"{name} random {i} {alloc}: {_spec(spec)}")
    for tid, lowered in _lowerings(wl, optimum):
        result = check_robustness_delta(wl, lowered, tid)
        spec = None if result.robust else result.counterexample.spec
        lines.append(f"{name} lower T{tid}: {_spec(spec)}")
    if survey:
        for c in enumerate_counterexamples(
            wl, _survey_allocation(wl), materialize_schedules=False
        ):
            lines.append(f"{name} survey {c.spec}")
    return lines, [sharded_checks, one_unit.stats.checks]


def expected(name: str, wl, survey: bool) -> Tuple[List[str], List[int]]:
    """The same outputs from the ``components`` reference engine: its
    one optimum stands for both production runs."""
    engine = "components"
    lines: List[str] = []
    optimum, checks = reference.optimal_allocation(wl, POSTGRES_LEVELS, engine)
    lines.append(f"{name} optimum sharded {optimum}")
    lines.append(f"{name} optimum one-unit {optimum}")
    for i, alloc in enumerate(_random_allocations(name, wl)):
        spec = reference.first_witness_spec(wl, alloc, engine)
        lines.append(f"{name} random {i} {alloc}: {_spec(spec)}")
    for tid, lowered in _lowerings(wl, optimum):
        spec = reference.first_witness_spec(wl, lowered, engine, delta_tid=tid)
        lines.append(f"{name} lower T{tid}: {_spec(spec)}")
    if survey:
        for spec in reference.survey(wl, _survey_allocation(wl), engine):
            lines.append(f"{name} survey {spec}")
    return lines, [checks, checks]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dense", type=int, default=40)
    parser.add_argument("--clustered", type=int, default=20)
    parser.add_argument("--small", type=int, default=60)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = probes = 0
    for name, wl, survey in corpus(args.dense, args.clustered, args.small):
        bitset, checks = production(name, wl, survey)
        components, reference_checks = expected(name, wl, survey)
        if bitset != components or checks != reference_checks:
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
