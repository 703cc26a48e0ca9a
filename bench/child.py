"""One round of one workload, in a fresh process.

Started by the runner as ``python -m bench.child ...``.  The child sets up
(imports, inputs, for ``serve-churn`` the daemon and its live set),
prints ``READY`` -- the runner's ``setup_s`` ends there -- collects
garbage once, then runs the workload's cycles in a closed loop until the
time budget would be exceeded, probing the machine's speed
(:mod:`bench.reference`) before, between and after cycles, and writes
the round's samples, probes, checks and (with ``--traced``) per-layer
metrics and spans to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Optional

from .reference import PROBE_EVERY_S, probe
from .tracer import Tracer
from .workloads import registry


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    # Turn the runner's SIGTERM into SystemExit so ``close`` still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this process and the daemon it may start: a closed loop
    # never has both busy at once, the speed probes then measure the CPU
    # the work runs on, and the work cannot migrate between virtual CPUs
    # that run at different speeds.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workload = registry()[args.workload]
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    state = workload.setup(inputs, Path(args.workdir))
    try:
        print("READY", flush=True)
        gc.collect()
        per_cycle = []
        cycle_seconds = []
        # Per cycle, the index of the speed probe before it; the one
        # after it is the next, so every cycle is bracketed by two.
        cycle_probe = []
        available = workload.cycles(state)
        probes = [probe()]
        elapsed = 0.0  # time in cycles; the probes between them excluded
        since_probe = 0.0
        while len(per_cycle) < available:
            done = len(per_cycle)
            # Stop before a cycle of average length would overrun the
            # budget, but always complete the cycles the pins cover.
            if done >= workload.pin_cycles and elapsed + elapsed / done > args.budget:
                break
            start = perf_counter()
            per_cycle.append(workload.cycle(state, done))
            spent = perf_counter() - start
            cycle_seconds.append(spent)
            cycle_probe.append(len(probes) - 1)
            elapsed += spent
            since_probe += spent
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe())
                since_probe = 0.0
        if since_probe:
            probes.append(probe())
        done = len(per_cycle)
        samples = [sample for cycle in per_cycle for sample in cycle]
        sample_probe = [k for cycle, k in zip(per_cycle, cycle_probe) for _ in cycle]
        extra = workload.finish(state, done)
        layers = extra.pop("layers", {})
        problems, pinned, facts = workload.check(state, done)
        result = {
            "workload": args.workload,
            "elapsed_s": elapsed,
            "probes": probes,
            "cycles": done,
            "available": available,
            "cycle_seconds": cycle_seconds,
            "cycle_probe": cycle_probe,
            "samples": [s.row() + [k] for s, k in zip(samples, sample_probe)],
            "extra": extra,
            "problems": problems,
            "pinned": pinned,
            "facts": facts,
        }
        if args.traced:
            tracer = Tracer()
            layers.update(workload.trace(state, done, tracer))
            spans = tracer.spans
            replayed = {op for name, _s, _e, parent, op in spans if name == "op" and parent is None}
            traced_ns = sum(e - s for name, s, e, parent, _op in spans if name == "op" and parent is None)
            untraced_s = sum(samples[op].seconds for op in replayed)
            if untraced_s:
                layers["bench.trace_overhead"] = traced_ns / 1e9 / untraced_s
            result["spans"] = spans
            result["span_summary"] = tracer.summary()
            result["missing"] = sorted(tracer.missing)
        result["layers"] = {k: v for k, v in layers.items() if v is not None}
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    finally:
        workload.close(state)
    return 0


if __name__ == "__main__":
    sys.exit(main())
