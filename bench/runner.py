"""Generate inputs, run interleaved rounds in child processes, report.

Every input is generated from ``--seed`` here, before any timer starts;
each round runs in a fresh ``python -m bench.child`` process that gets
only its round's inputs, so caches, garbage-collector state and the
daemon never carry over between rounds.  Rounds of different workloads
interleave (A B C D A B C D ...), which spreads slow drift of a shared
machine over every workload instead of one.  Times and rates are scaled
to the nominal machine speed (:mod:`bench.reference`) and pooled over
the rounds; set-up time and peak memory are medians of the rounds.
"""

from __future__ import annotations

import hashlib
import json
import selectors
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import stats
from .reference import NOMINAL_RATE
from .common import (
    DEFAULT_SEED,
    ROOT,
    ROUNDS,
    WORK,
    BenchError,
    child_env,
    git_commit,
    load_spec,
    machine,
)

EXPECTED_PATH = ROOT / "bench" / "expected.json"
#: A child that has not printed READY by then has hung in set-up.
READY_TIMEOUT_S = 120
#: Per-second rates, pooled over rounds by time rather than by median.
RATES = ("throughput_per_s", "mutations_per_s")
#: Budget plus output checks plus, when traced, the replays.
ROUND_TIMEOUT_S = 170


def digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def run_round(name: str, inputs: Any, budget: float, traced: bool, workdir: Path, index: int) -> Dict[str, Any]:
    """One round of ``name`` in a fresh child; adds ``setup_s`` to its result."""
    stem = workdir / f"{name}-r{index}"
    stem.mkdir()
    inputs_path = stem / "inputs.json"
    result_path = stem / "result.json"
    inputs_path.write_text(json.dumps(inputs), encoding="utf-8")
    command = [
        sys.executable, "-m", "bench.child",
        "--workload", name,
        "--inputs", str(inputs_path),
        "--result", str(result_path),
        "--workdir", str(stem),
        "--budget", repr(budget),
    ] + (["--traced"] if traced else [])
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            ready = proc.stdout.readline() if selector.select(READY_TIMEOUT_S) else b""
        setup_s = perf_counter() - start
        if ready.strip() != b"READY":
            raise BenchError(f"{name} round {index}: the child never became ready")
        code = proc.wait(timeout=ROUND_TIMEOUT_S)
        if code != 0:
            raise BenchError(f"{name} round {index}: the child exited with {code}")
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} round {index}: the child did not finish in time") from None
    finally:
        if proc.poll() is None:
            # SIGTERM first: the child's clean-up stops the daemon it started.
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()
        proc.stdout.close()
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["setup_s"] = setup_s
    return result


def speed(result: Dict[str, Any]) -> float:
    """The round's median machine speed as a share of :data:`NOMINAL_RATE`."""
    return stats.median(result["probes"]) / NOMINAL_RATE


def latency_metrics(workload: Any) -> Dict[str, Tuple[float, Optional[Tuple[str, ...]]]]:
    """Latency metric -> (percentile, op kinds it covers; ``None`` for all)."""
    table = {"latency_p50_ms": (50, None), "latency_tail_ms": (workload.tail_percentile, None)}
    for group, kinds in getattr(workload, "groups", {}).items():
        table[f"{group}_p99_ms"] = (99, kinds)
    return table


def round_values(workload: Any, result: Dict[str, Any], nominal: bool) -> Tuple[Dict[str, float], List[float], float]:
    """One round's end-to-end values, its op times and its measured seconds.

    With ``nominal``, every op's time is scaled by the machine speed the
    two probes around its cycle measured, so the values read as they
    would at :data:`NOMINAL_RATE`; set-up is scaled by the first probe.
    """
    probes = result["probes"]

    def factor(k: int) -> float:
        return (probes[k] + probes[k + 1]) / 2 / NOMINAL_RATE if nominal else 1.0

    rows = result["samples"]
    seconds = [row[1] * factor(row[5]) for row in rows]
    elapsed = sum(s * factor(k) for s, k in zip(result["cycle_seconds"], result["cycle_probe"]))
    values = {
        "setup_s": result["setup_s"] * (probes[0] / NOMINAL_RATE if nominal else 1.0),
        "throughput_per_s": sum(row[2] for row in rows) / elapsed,
        "peak_rss_mb": result["extra"]["rss_mb"],
    }
    for metric, (q, kinds) in latency_metrics(workload).items():
        chosen = [s for s, row in zip(seconds, rows) if kinds is None or row[0] in kinds]
        values[metric] = stats.percentile(chosen, q) * 1e3
    if "mutations" in result["extra"]:
        values["mutations_per_s"] = result["extra"]["mutations"] / elapsed
    return values, seconds, elapsed


def summarize(name: str, workload: Any, rounds: List[Dict[str, Any]], spec: Dict[str, Any],
              expected: Optional[Dict[str, Any]], inputs: Any, seed: int, traced: bool) -> Dict[str, Any]:
    """Fold a workload's rounds into its metrics, layer metrics and checks.

    Rates and latencies pool the three rounds (each already at nominal
    speed): a rate is all ops over all measured time, a latency a
    percentile of all op times.  Over ten runs this spread half as much
    as the median of per-round values.  ``setup_s`` and ``peak_rss_mb``
    are medians of their per-round values.
    """
    raw = [round_values(workload, r, nominal=False)[0] for r in rounds]
    nominal = [round_values(workload, r, nominal=True) for r in rounds]
    per_round = [values for values, _, _ in nominal]
    measured = [elapsed for _, _, elapsed in nominal]
    metrics = {}
    for metric in per_round[0]:
        values = [v[metric] for v in per_round]
        value = stats.median(values)
        if metric in RATES:  # ops over time: weight each round by its time
            value = sum(v * t for v, t in zip(values, measured)) / sum(measured)
        metrics[metric] = {
            "value": value,
            "rounds": values,
            "raw_rounds": [v[metric] for v in raw],
        }
    kinds_of = [row[0] for r in rounds for row in r["samples"]]
    pooled = [s for _, seconds, _ in nominal for s in seconds]
    for metric, (q, kinds) in latency_metrics(workload).items():
        chosen = [s for s, kind in zip(pooled, kinds_of) if kinds is None or kind in kinds]
        metrics[metric].update(
            value=stats.percentile(chosen, q) * 1e3,
            percentile=q,
            samples=len(chosen),
            beyond=stats.beyond(len(chosen), q),
        )
    problems = [p for r in rounds for p in r["problems"]]
    tries = sum(row[3] for r in rounds for row in r["samples"])
    fails = sum(row[4] for r in rounds for row in r["samples"]) + len(problems)
    pins = {"inputs_sha256": digest(inputs), "outputs_sha256": digest([r["pinned"] for r in rounds])}
    pinned = (expected or {}).get("workloads", {}).get(name)
    if pinned and (expected or {}).get("seed") == seed:
        if pinned["inputs_sha256"] != pins["inputs_sha256"]:
            problems.append("the generated inputs differ from bench/expected.json")
        elif pinned["outputs_sha256"] != pins["outputs_sha256"]:
            problems.append("the outputs differ from bench/expected.json")
    layers: Dict[str, Any] = {}
    for group in getattr(workload, "groups", {}):
        metrics_name = f"{group}_p99_ms"
        layers[f"service.request.{metrics_name}"] = metrics[metrics_name]["value"]
    for entry in spec["per_layer"] if traced else ():
        metric = entry["name"]
        if metric in layers:
            continue
        if metric not in workload.layers:
            layers[metric] = "n/a"
            continue
        values = [r["layers"].get(metric) for r in rounds]
        layers[metric] = "missing" if None in values else stats.median(values)
    facts: Dict[str, Any] = {}
    for r in rounds:
        for key, value in r["facts"].items():
            facts.setdefault(key, []).append(value)
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": tries,
        "failed": fails,
        "failed_frac": fails / tries if tries else 1.0,
        "problems": problems,
        "correct": not problems and fails == 0,
        "cycles": [r["cycles"] for r in rounds],
        "speed": [speed(r) for r in rounds],
        "facts": {k: stats.median(v) for k, v in facts.items()},
        **pins,
        "span_summary": [r.get("span_summary") for r in rounds],
        "missing_spans": sorted({m for r in rounds for m in r.get("missing", ())}),
    }


def run_benchmark(names: Sequence[str], seed: int, seconds: float, traced: bool,
                  rounds: int = ROUNDS) -> Dict[str, Any]:
    """Run ``names`` for ``seconds`` each (split over ``rounds``); the result document."""
    from .workloads import registry

    spec = load_spec()
    workloads = registry()
    unknown = [n for n in names if n not in workloads]
    if unknown:
        raise BenchError(f"unknown workload(s) {unknown}; pick from {list(workloads)}")
    inputs = {name: workloads[name].generate(seed, rounds) for name in names}
    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")) if EXPECTED_PATH.exists() else None
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    try:
        for index in range(rounds):
            for name in names:
                results[name].append(
                    run_round(name, inputs[name][index], seconds / rounds, traced, workdir, index)
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {
        "schema": 1,
        "machine": machine(),
        "commit": git_commit(),
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "traced": traced,
        "workloads": {
            name: summarize(name, workloads[name], results[name], spec, expected, inputs[name], seed, traced)
            for name in names
        },
    }
    document["correct"] = all(w["correct"] for w in document["workloads"].values())
    document["spans"] = {
        name: [r["spans"] for r in results[name]] for name in names
    } if traced else None
    return document


def _fmt(value: Any) -> str:
    if isinstance(value, str):
        return value
    return f"{value:.6g}"


def report(document: Dict[str, Any], spec: Dict[str, Any]) -> str:
    """The human-readable table: every metric by name, unit and sample count."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"write_p99_ms": "ms", "read_p99_ms": "ms", "mutations_per_s": "1/s"})
    lines = [f"seed {document['seed']}, {document['rounds']} rounds per workload,"
             f" machine {document['machine']['cpu_count']} cpus ({document['machine']['affinity']} usable);"
             " times and rates at nominal machine speed"]
    for name, w in document["workloads"].items():
        lines.append("")
        speeds = ", ".join(f"{s:.3f}" for s in w["speed"])
        lines.append(f"{name}: {'correct' if w['correct'] else 'INCORRECT'},"
                     f" cycles per round {w['cycles']}, machine speed per round {speeds}")
        for metric, entry in w["metrics"].items():
            note = ""
            if "percentile" in entry:
                b = entry["beyond"]
                note = (f"  p{entry['percentile']:g} of n={entry['samples']}, {b} beyond"
                        + ("" if stats.supported(entry["samples"], entry["percentile"]) else " (indicative)"))
            lines.append(f"  {metric:<34} {_fmt(entry['value']):>12} {units.get(metric, ''):<6}{note}")
        lines.append(f"  {'failed_frac':<34} {_fmt(w['failed_frac']):>12}        {w['failed']} of {w['attempted']}")
        for key, value in w["facts"].items():
            lines.append(f"  {key:<34} {_fmt(value):>12}        (input fact)")
        for problem in w["problems"]:
            lines.append(f"  problem: {problem}")
        if document["traced"]:
            for metric, value in w["layers"].items():
                if value != "n/a":
                    lines.append(f"  {metric:<44} {_fmt(value):>12} {units.get(metric, '')}")
    return "\n".join(lines)


def contract_line(document: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """The one-line result: end-to-end metrics, or per-layer ones when traced.

    A per-layer metric that a workload does not drive, or whose program
    function has gone, reads 0 here; the report and the result file say
    which (``n/a`` or ``missing``).
    """
    (name, w), = document["workloads"].items()
    metrics = {}
    if document["traced"]:
        for entry in spec["per_layer"]:
            value = w["layers"][entry["name"]]
            metrics[entry["name"]] = {"value": value if not isinstance(value, str) else 0, "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": w["metrics"][entry["name"]]["value"], "unit": entry["unit"]}
    return {"correct": w["correct"], "attempted": w["attempted"], "failed": w["failed"], "metrics": metrics}


def write_expected(document: Dict[str, Any]) -> None:
    """Pin this run's input and output digests in ``bench/expected.json``."""
    pins = {
        name: {"inputs_sha256": w["inputs_sha256"], "outputs_sha256": w["outputs_sha256"]}
        for name, w in document["workloads"].items()
    }
    EXPECTED_PATH.write_text(
        json.dumps({"seed": document["seed"], "rounds": document["rounds"], "workloads": pins},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def default_out(names: Sequence[str], seed: int, traced: bool) -> Path:
    label = names[0] if len(names) == 1 else "all"
    return WORK / f"{label}-seed{seed}{'-traced' if traced else ''}.json"


def command_run(args) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    traced = bool(args.traced or args.trace)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    document = run_benchmark(names, args.seed, seconds, traced)
    out = Path(args.out) if args.out else default_out(names, args.seed, traced)
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = document.pop("spans")
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if spans is not None:
        out.with_suffix(".spans.json").write_text(json.dumps(spans), encoding="utf-8")
    if args.pin:
        write_expected(document)
    print(report(document, spec))
    print(f"\nresult written to {out}")
    if len(names) == 1:
        print(json.dumps(contract_line(document, spec)))
    return 0 if document["correct"] else 1


def add_run_arguments(parser) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seconds", type=float, help="measured seconds per workload (default: BENCHMARK.json)")
    parser.add_argument("--traced", action="store_true", help="also replay every round layer by layer")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="same as --traced when 1")
    parser.add_argument("--out", help="result file (default under .bench_work/)")
    parser.add_argument("--pin", action="store_true", help="record this run's digests in bench/expected.json")


def command_calibrate(args) -> int:
    """Rerun the whole benchmark ``--runs`` times and record the spread.

    Run ``i`` uses seed ``DEFAULT_SEED + i``: a regression gate compares
    runs made with different seeds, so the recorded spread covers input
    variation as well as machine noise.
    """
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [DEFAULT_SEED + i for i in range(args.runs)]
    values: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    for seed in seeds:
        document = run_benchmark(names, seed, seconds, traced=False)
        if not document["correct"]:
            raise BenchError(f"calibration run with seed {seed} failed its output checks")
        for name, w in document["workloads"].items():
            for metric in bounds:
                values[name].setdefault(metric, []).append(w["metrics"][metric]["value"])
        print(f"calibration run with seed {seed} done", file=sys.stderr)
    record = {
        "machine": machine(),
        "commit": git_commit(),
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {
            name: {
                metric: {"values": v, "median": stats.median(v), "spread": stats.spread(v)}
                for metric, v in metrics.items()
            }
            for name, metrics in values.items()
        },
    }
    out = Path(args.out)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{'workload':<20} {'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, metrics in record["workloads"].items():
        for metric, entry in metrics.items():
            flag = "" if entry["spread"] <= bounds[metric] / 3 else "  above a third of its bound"
            if metric == "setup_s":
                flag = "  (exempt: judged on its median)"
            print(f"{name:<20} {metric:<18} {entry['median']:>12.6g} {entry['spread']:>8.3f}"
                  f" {bounds[metric]:>6}{flag}")
    print(f"calibration written to {out}")
    return 0
