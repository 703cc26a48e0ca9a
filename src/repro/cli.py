"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands:

* ``check <workload-file> [--allocation T1=RC,T2=SSI | --uniform SI]`` —
  decide robustness against an allocation (Algorithm 1) and, on
  non-robustness, print the counterexample split schedule.
* ``allocate <workload-file> [--levels RC,SI | RC,SI,SSI]`` — compute the
  optimal robust allocation (Algorithm 2 / Theorem 5.5).  Both ``check``
  and ``allocate`` accept ``--stats`` to print the shared analysis
  context's counters (checks executed, index builds, cache hits).
* ``simulate <workload-file> [--uniform SI] [--seed N] [--runs N]`` — run
  the workload on the MVCC engine's discrete-event simulator and report
  commits/aborts and whether the executions were serializable
  (``--stats`` adds blocking, throughput and latency percentiles); the
  sentinel workload ``sweep`` runs a contention sweep comparing the
  optimal allocation against all-SSI and all-SI
  (``repro simulate sweep --benchmark smallbank --json out.json``).
* ``stats <workload-file>`` — structural contention statistics.
* ``templates check|allocate <template-file>`` — template-level robustness
  (bounded exact check + static sufficient condition) and optimal
  per-program allocation.
* ``trace report|diff|flame`` — analyse exported ``--trace`` files:
  profile tree with inclusive/self times and critical path, noise-aware
  regression diff of two traces, folded stacks for flamegraph tooling.
* ``serve`` — the long-lived allocation daemon: a line-delimited JSON
  command protocol over TCP (and optionally a unix socket) around an
  incremental :class:`~repro.core.incremental.AllocationManager`, with
  warm snapshots, admission control and a ``/metrics`` endpoint.  See
  ``docs/service.md`` for the operator guide.

The input-parsing helpers shared with the daemon live in
:mod:`repro.service.handlers`.  A
:class:`~repro.service.handlers.CommandError` that reaches :func:`main`
— an unreadable, non-UTF-8 or malformed workload or template file, an
unreadable or invalid trace file, a bad level, level class or
allocation spec, bad sweep points, a non-positive ``simulate`` count
(``--runs``, ``--repeat``, ``--sessions``, ``--transactions``), an empty
``--points`` or ``--strategies`` list, a ``simulate`` flag that only the
other mode reads (a sweep flag on a workload file, or a file flag on
``sweep``), a negative or NaN ``trace diff``
threshold, a non-positive ``service top`` interval, an output file
that cannot be written (``--trace``, ``check --dot``, ``simulate sweep
--json``, ``trace flame -o``; probed before the command does any work
or prints anything), or a daemon that ``trace dump`` or
``service top`` cannot reach or that answers with an error — prints
``repro: error: <message>`` to stderr and exits 2, which no verdict
uses: ``check`` exits 1 for "not robust" and ``allocate`` for "no
robust allocation exists".

Workload files use the text format of
:func:`repro.core.workload.parse_workload`::

    # comments allowed
    T1: R[x] W[y]
    T2: R[y] W[x]
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import closing, contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Sequence

from .analysis.report import (
    allocation_report,
    analysis_stats_report,
    phase_timing_report,
    robustness_report,
)
from .core.allocation import optimal_allocation
from .core.context import AnalysisContext
from .core.robustness import check_robustness
from .core.serialization import is_conflict_serializable
from .observability import (
    DEFAULT_ABS_FLOOR_S,
    DEFAULT_MAX_REGRESS,
    Tracer,
    current_tracer,
    use_tracer,
)
from .service.handlers import (
    CommandError,
    load_workload_file as _load_workload,
    parse_allocation_spec,
    parse_level,
    parse_levels_spec,
    shard_report_line as _shard_report,
)
from .service import handlers as _handlers


@contextmanager
def _writing(path: str) -> Iterator[None]:
    """Turn a failure to write the output file ``path`` (a missing
    directory, a directory, no permission) into a :class:`CommandError`."""
    try:
        yield
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_writable(path: Optional[str]) -> None:
    """Fail now, before any work, if the output file ``path`` cannot be
    written: it is a directory, its directory is missing, or either
    forbids writing.  The probe neither creates ``path`` nor touches an
    existing one; :func:`_writing` still guards the write itself."""
    if not path:
        return
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    else:
        directory = os.path.dirname(path) or os.curdir
        if not os.path.isdir(directory):
            code = errno.ENOENT
        else:
            code = 0 if os.access(directory, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise CommandError(f"cannot write {path}: {os.strerror(code)}")


def _print_phase_timings() -> None:
    """Append the per-phase breakdown to ``--stats`` output when tracing.

    Without ``--trace`` the tracer is the no-op default and nothing is
    printed, keeping ``--stats`` output byte-identical to earlier
    releases.
    """
    tracer = current_tracer()
    if tracer.enabled:
        print()
        print(phase_timing_report(tracer.registry))


def _cmd_check(args: argparse.Namespace) -> int:
    _check_writable(args.dot)
    workload = _load_workload(args.workload)
    allocation = parse_allocation_spec(workload, args.allocation, args.uniform)
    context = AnalysisContext(workload)
    result = check_robustness(workload, allocation, context=context)
    print(robustness_report(workload, allocation, result))
    if not result.robust:
        from .analysis.anomalies import classify_counterexample

        anomaly = classify_counterexample(result.counterexample)
        print(f"\nAnomaly: {anomaly}")
        if args.dot:
            from .analysis.export import serialization_graph_dot
            from .core.serialization import serialization_graph

            graph = serialization_graph(result.counterexample.schedule)
            with _writing(args.dot):
                Path(args.dot).write_text(
                    serialization_graph_dot(graph), encoding="utf-8"
                )
            print(f"Serialization graph written to {args.dot}")
    if args.stats:
        print()
        print(_shard_report(context))
        print(analysis_stats_report(context.stats))
        _print_phase_timings()
    return 0 if result.robust else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from .analysis.statistics import workload_stats

    workload = _load_workload(args.workload)
    print(workload_stats(workload))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import full_report

    workload = _load_workload(args.workload)
    print(full_report(workload))
    return 0


def _cmd_blame(args: argparse.Namespace) -> int:
    from .analysis.blame import blame_report, minimal_promotion_sets

    workload = _load_workload(args.workload)
    allocation = parse_allocation_spec(workload, args.allocation, args.uniform)
    report = blame_report(workload, allocation)
    print(f"Allocation: {allocation}")
    print(report)
    if not report.robust:
        sets = minimal_promotion_sets(workload, allocation, max_size=args.max_size)
        if sets:
            print("\nMinimal promotion sets (to SSI):")
            for promo in sets:
                print("  {" + ", ".join(f"T{tid}" for tid in sorted(promo)) + "}")
        else:
            print(f"\nNo promotion set of size <= {args.max_size} suffices.")
    return 0 if report.robust else 1


def _cmd_rate(args: argparse.Namespace) -> int:
    from .enumeration.sampling import estimate_anomaly_rate

    workload = _load_workload(args.workload)
    allocation = parse_allocation_spec(workload, args.allocation, args.uniform)
    estimate = estimate_anomaly_rate(
        workload, allocation, samples=args.samples, seed=args.seed
    )
    print(f"Allocation: {allocation}")
    print(estimate)
    return 0 if estimate.anomalous == 0 else 1


def _cmd_templates(args: argparse.Namespace) -> int:
    from .static_analysis import static_mixed_check
    from .templates import check_template_robustness, optimal_template_allocation

    templates = _handlers.load_templates_file(args.templates)
    if args.action == "allocate":
        levels = parse_levels_spec(args.levels)
        optimum = optimal_template_allocation(
            templates, levels, domain_size=args.domain, copies=args.copies
        )
        if optimum is None:
            class_name = ",".join(level.name for level in sorted(set(levels)))
            print(f"No robust per-template allocation over {{{class_name}}} exists.")
            return 1
        for name, level in optimum.items():
            print(f"{name}: {level.name}")
        return 0
    # action == "check"
    if args.uniform:
        level = parse_level(args.uniform)
        allocation = {t.name: level for t in templates}
    else:
        allocation = {}
        for part in (args.allocation or "").split(","):
            name, _, level = part.partition("=")
            if not name:
                raise CommandError("provide --allocation Name=LEVEL,... or --uniform")
            allocation[name.strip()] = parse_level(level)
        names = [t.name for t in templates]
        unknown = sorted(set(allocation) - set(names))
        if unknown:
            raise CommandError(f"allocation names unknown templates {unknown}")
        missing = [name for name in names if name not in allocation]
        if missing:
            raise CommandError(f"allocation misses templates {missing}")
    static = static_mixed_check(templates, allocation)
    print(f"Static sufficient check: {static}")
    result = check_template_robustness(
        templates, allocation, domain_size=args.domain, copies=args.copies
    )
    verdict = "ROBUST" if result.robust else "NOT ROBUST"
    print(
        f"Bounded exact check (domain={result.domain_size},"
        f" copies={result.copies}): {verdict}"
    )
    if not result.robust:
        origin = result.counterexample_templates()
        print(f"Counterexample uses templates: {origin}")
    return 0 if result.robust else 1


def _cmd_allocate(args: argparse.Namespace) -> int:
    workload = _load_workload(args.workload)
    levels = parse_levels_spec(args.levels)
    context = AnalysisContext(workload)
    optimum = optimal_allocation(workload, levels, context=context)
    print(allocation_report(workload, optimum, levels))
    if args.stats:
        print()
        print(_shard_report(context))
        print(analysis_stats_report(context.stats))
        _print_phase_timings()
    return 0 if optimum is not None else 1


#: ``repro simulate`` flags that only a workload file reads, and those
#: that only ``sweep`` reads; every other flag applies to both modes.
_FILE_ONLY_FLAGS = ("allocation", "uniform", "runs")
_SWEEP_ONLY_FLAGS = ("benchmark", "points", "transactions", "strategies", "json")


def _cmd_simulate(args: argparse.Namespace) -> int:
    sweep = args.workload == "sweep"
    for flag in _FILE_ONLY_FLAGS if sweep else _SWEEP_ONLY_FLAGS:
        if getattr(args, flag) is not None:
            mode = "simulate sweep" if sweep else "simulate with a workload file"
            raise CommandError(f"--{flag} does not apply to {mode}")
    for flag in ("runs", "repeat", "sessions", "transactions"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise CommandError(f"--{flag} must be >= 1, got {value}")
    if sweep:
        return _cmd_simulate_sweep(args)
    from .mvcc import exploration_config, simulate_workload, trace_to_schedule
    from .mvcc.simulator import replicate_workload

    workload = _load_workload(args.workload)
    allocation = parse_allocation_spec(workload, args.allocation, args.uniform)
    instances, instance_allocation, _ = replicate_workload(
        workload, allocation, args.repeat or 1
    )
    sessions = args.sessions or len(instances)
    runs = args.runs or 5
    serializable_runs = 0
    commits = aborts = 0
    for run in range(runs):
        trace, stats = simulate_workload(
            instances,
            instance_allocation,
            exploration_config(sessions, seed=args.seed + run),
        )
        schedule = trace_to_schedule(trace, instances)
        serializable = is_conflict_serializable(schedule)
        serializable_runs += serializable
        commits += stats.commits
        aborts += stats.total_aborts
        print(
            f"run {run}: commits={stats.commits} aborts={stats.total_aborts}"
            f" serializable={serializable}"
        )
        if args.stats:
            latency = stats.latency_percentiles()
            print(
                f"  blocks={stats.blocks} retries={stats.retries}"
                f" wait_time={stats.wait_time:.1f} operations={stats.operations}"
                f" sim_time={stats.sim_time:.1f} throughput={stats.throughput:.3f}"
                f"\n  latency p50={latency['p50']:.1f} p95={latency['p95']:.1f}"
                f" p99={latency['p99']:.1f}"
            )
    print(
        f"\n{serializable_runs}/{runs} executions serializable;"
        f" {commits} commits, {aborts} aborts in total"
    )
    return 0


def _parse_sweep_point(text: str) -> object:
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _cmd_simulate_sweep(args: argparse.Namespace) -> int:
    """``repro simulate sweep``: contention sweep across allocations."""
    from .mvcc.sweep import STRATEGIES, contention_sweep

    points = None
    if args.points is not None:
        points = [
            _parse_sweep_point(part.strip())
            for part in args.points.split(",")
            if part.strip()
        ]
        if not points:
            raise CommandError(f"--points lists no values: {args.points!r}")
    strategies = STRATEGIES
    if args.strategies is not None:
        strategies = tuple(
            part.strip() for part in args.strategies.split(",") if part.strip()
        )
        if not strategies:
            raise CommandError(f"--strategies lists no strategy: {args.strategies!r}")
    _check_writable(args.json)
    try:
        result = contention_sweep(
            benchmark="smallbank" if args.benchmark is None else args.benchmark,
            points=points,
            transactions=args.transactions or 20,
            repeat=args.repeat or 50,
            sessions=args.sessions or 8,
            seed=args.seed,
            strategies=strategies,
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    print(result.table())
    print(
        f"\n{result.total_operations} simulated operations across"
        f" {len(result.points)} points"
    )
    if args.stats:
        for point in result.points:
            print(
                f"{point.case}: operations={point.operations}"
                f" sim_time={point.sim_time:.1f} wall_s={point.wall_s:.3f}"
            )
    if args.json:
        with _writing(args.json):
            Path(args.json).write_text(
                json.dumps(result.to_json(), indent=2), encoding="utf-8"
            )
        print(f"Sweep results written to {args.json}")
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from .observability import build_profile, render_trace_report

    key_attrs = tuple(
        part.strip() for part in (args.group_by or "").split(",") if part.strip()
    )
    data = _handlers.load_trace_file(args.file)
    root = build_profile(data, key_attrs=key_attrs)
    print(render_trace_report(data, root, path=args.file, max_depth=args.depth))
    return 0


def _cmd_trace_flame(args: argparse.Namespace) -> int:
    from .observability import build_profile, folded_stacks

    _check_writable(args.output)
    key_attrs = tuple(
        part.strip() for part in (args.group_by or "").split(",") if part.strip()
    )
    root = build_profile(_handlers.load_trace_file(args.file), key_attrs=key_attrs)
    stacks = folded_stacks(root)
    if args.output:
        with _writing(args.output):
            Path(args.output).write_text(stacks, encoding="utf-8")
        print(f"Folded stacks written to {args.output}")
    else:
        sys.stdout.write(stacks)
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .observability import diff_traces

    base = _handlers.load_trace_file(args.baseline)
    current = _handlers.load_trace_file(args.current)
    try:
        report = diff_traces(
            base,
            current,
            max_regress=args.max_regress / 100.0,
            abs_floor_s=args.abs_floor_ms / 1e3,
        )
    except ValueError:
        raise CommandError(
            "--max-regress and --abs-floor-ms must be numbers >= 0, got"
            f" {args.max_regress} and {args.abs_floor_ms}"
        ) from None
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(f"Trace diff: {args.baseline} -> {args.current}")
        print(report.render())
    return report.exit_code


def _daemon_endpoint(args: argparse.Namespace) -> Dict[str, object]:
    """Client connection kwargs from ``--host/--port/--socket`` flags."""
    if args.socket:
        return {"socket_path": args.socket}
    return {"host": args.host, "port": args.port}


def _cmd_trace_dump(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError
    from .service.top import render_trace_dump

    params = {}
    if args.last is not None:
        params["last"] = args.last
    if args.slowest is not None:
        params["slowest"] = args.slowest
    try:
        with ServiceClient(**_daemon_endpoint(args)) as client:  # type: ignore[arg-type]
            response = client.call("dump-traces", **params)
    except ServiceError as exc:
        raise CommandError(f"trace dump failed: {exc}") from None
    except OSError as exc:
        raise CommandError(f"cannot reach daemon: {exc}") from None
    payload = {
        key: response[key]
        for key in ("added", "last", "slowest")
        if key in response
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(render_trace_dump(payload))
    return 0


def _cmd_service_top(args: argparse.Namespace) -> int:
    from .service.client import ServiceError
    from .service.top import top_frames

    frames = top_frames(
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
        **_daemon_endpoint(args),  # type: ignore[arg-type]
    )
    with closing(frames):
        try:
            while True:
                # Only reaching the daemon maps OSError to exit 2; a closed
                # stdout raises BrokenPipeError from print, which main()
                # turns into 141.
                try:
                    frame = next(frames, None)
                except ValueError as exc:
                    raise CommandError(str(exc)) from None
                except ServiceError as exc:
                    raise CommandError(f"service top failed: {exc}") from None
                except OSError as exc:
                    raise CommandError(f"cannot reach daemon: {exc}") from None
                if frame is None:
                    return 0
                print(frame)
        except KeyboardInterrupt:
            print("repro service top: interrupted")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import AdmissionPolicy, ServiceConfig, SnapshotError
    from .service.daemon import serve as _run_daemon

    try:
        admission = AdmissionPolicy(
            floor=args.admission_floor,
            max_promotions=args.max_promotions,
            mode=args.admission_mode,
        )
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        socket_path=args.socket,
        metrics_port=args.metrics_port,
        port_file=args.port_file,
        snapshot_path=args.snapshot,
        snapshot_every=args.snapshot_every,
        resume=not args.no_resume,
        levels=tuple(parse_levels_spec(args.levels)),
        admission=admission,
        eventlog_path=args.eventlog,
        slo_p99_ms=args.slo_p99_ms,
    )
    try:
        _run_daemon(config)
    except SnapshotError as exc:  # the snapshot to resume from is unusable
        raise CommandError(str(exc)) from None
    return 0


def _add_daemon_endpoint(sub_parser: argparse.ArgumentParser) -> None:
    """``--host/--port/--socket`` flags for commands talking to a daemon."""
    sub_parser.add_argument(
        "--host", default="127.0.0.1", help="daemon host (default 127.0.0.1)"
    )
    sub_parser.add_argument(
        "--port",
        type=int,
        default=7311,
        help="daemon TCP command port (default 7311)",
    )
    sub_parser.add_argument(
        "--socket",
        metavar="PATH",
        help="connect over this unix socket instead of TCP",
    )


def _add_trace_flag(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "write a JSON span trace of the run to FILE (see"
            " repro.observability.validate_trace for the schema)"
        ),
    )
    sub_parser.add_argument(
        "--trace-memory",
        action="store_true",
        help=(
            "with --trace: record tracemalloc peak/current deltas as"
            " mem_peak_kib/mem_current_kib attributes on top-level spans"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Mixed isolation-level robustness and allocation for MVCC"
            " (PODS 2023 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide robustness against an allocation")
    check.add_argument("workload", help="workload file (T<i>: R[x] W[y] per line)")
    check.add_argument("--allocation", help="per-transaction levels, e.g. T1=RC,T2=SSI")
    check.add_argument("--uniform", help="one level for all transactions (default SI)")
    check.add_argument("--dot", help="write the counterexample's SeG(s) as DOT here")
    check.add_argument(
        "--stats",
        action="store_true",
        help="print analysis-context counters (checks, cache hits)",
    )
    _add_trace_flag(check)
    check.set_defaults(func=_cmd_check)

    stats = sub.add_parser("stats", help="structural contention statistics")
    stats.add_argument("workload", help="workload file")
    stats.set_defaults(func=_cmd_stats)

    report = sub.add_parser("report", help="the one-page everything report")
    report.add_argument("workload", help="workload file")
    report.set_defaults(func=_cmd_report)

    blame = sub.add_parser(
        "blame", help="rank transactions by involvement in counterexamples"
    )
    blame.add_argument("workload", help="workload file")
    blame.add_argument("--allocation", help="per-transaction levels")
    blame.add_argument("--uniform", help="one level for all transactions")
    blame.add_argument(
        "--max-size", type=int, default=3, help="promotion set size bound"
    )
    blame.set_defaults(func=_cmd_blame)

    rate = sub.add_parser(
        "rate", help="Monte-Carlo anomaly rate of an allocation"
    )
    rate.add_argument("workload", help="workload file")
    rate.add_argument("--allocation", help="per-transaction levels")
    rate.add_argument("--uniform", help="one level for all transactions")
    rate.add_argument("--samples", type=int, default=300, help="interleavings drawn")
    rate.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_trace_flag(rate)
    rate.set_defaults(func=_cmd_rate)

    templates = sub.add_parser(
        "templates", help="template-level robustness and allocation"
    )
    templates.add_argument("action", choices=("check", "allocate"))
    templates.add_argument("templates", help="template file (Name(P): R[rel:P] ...)")
    templates.add_argument("--allocation", help="per-template levels, Name=LEVEL,...")
    templates.add_argument("--uniform", help="one level for all templates")
    templates.add_argument("--levels", default="RC,SI,SSI", help="class for allocate")
    templates.add_argument("--domain", type=int, default=2, help="domain bound")
    templates.add_argument("--copies", type=int, default=2, help="copies per binding")
    templates.set_defaults(func=_cmd_templates)

    allocate = sub.add_parser("allocate", help="compute the optimal robust allocation")
    allocate.add_argument("workload", help="workload file")
    allocate.add_argument(
        "--levels",
        default="RC,SI,SSI",
        help="class of levels, e.g. RC,SI (Oracle) or RC,SI,SSI (Postgres)",
    )
    allocate.add_argument(
        "--stats",
        action="store_true",
        help="print analysis-context counters (checks, cache hits)",
    )
    _add_trace_flag(allocate)
    allocate.set_defaults(func=_cmd_allocate)

    trace = sub.add_parser(
        "trace", help="analyse exported --trace files (report, diff, flame)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_report = trace_sub.add_parser(
        "report", help="profile tree, critical path and hot phases of a trace"
    )
    trace_report.add_argument("file", help="trace JSON file (from --trace)")
    trace_report.add_argument(
        "--group-by",
        metavar="ATTRS",
        help=(
            "comma-separated span attributes to refine grouping by"
            " (e.g. t1, tid)"
        ),
    )
    trace_report.add_argument(
        "--depth", type=int, metavar="N", help="limit the printed tree depth"
    )
    trace_report.set_defaults(func=_cmd_trace_report)

    trace_diff = trace_sub.add_parser(
        "diff", help="noise-aware per-phase timing diff of two traces"
    )
    trace_diff.add_argument("baseline", help="baseline trace JSON file")
    trace_diff.add_argument("current", help="current trace JSON file")
    trace_diff.add_argument(
        "--max-regress",
        type=float,
        default=DEFAULT_MAX_REGRESS * 100.0,
        metavar="PCT",
        help=(
            "relative slowdown threshold in percent, >= 0"
            f" (default {DEFAULT_MAX_REGRESS * 100:.0f})"
        ),
    )
    trace_diff.add_argument(
        "--abs-floor-ms",
        type=float,
        default=DEFAULT_ABS_FLOOR_S * 1e3,
        metavar="MS",
        help=(
            "absolute floor in milliseconds, >= 0: smaller deltas never"
            f" count (default {DEFAULT_ABS_FLOOR_S * 1e3:.1f})"
        ),
    )
    trace_diff.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable verdict document instead of the table",
    )
    trace_diff.set_defaults(func=_cmd_trace_diff)

    trace_flame = trace_sub.add_parser(
        "flame", help="export folded stacks for flamegraph.pl / speedscope"
    )
    trace_flame.add_argument("file", help="trace JSON file (from --trace)")
    trace_flame.add_argument(
        "--group-by",
        metavar="ATTRS",
        help="comma-separated span attributes to refine frames by",
    )
    trace_flame.add_argument(
        "-o", "--output", metavar="FILE", help="write here instead of stdout"
    )
    trace_flame.set_defaults(func=_cmd_trace_flame)

    trace_dump = trace_sub.add_parser(
        "dump",
        help=(
            "pull the flight recorder's retained request span trees from"
            " a running daemon (no --trace needed)"
        ),
    )
    _add_daemon_endpoint(trace_dump)
    trace_dump.add_argument(
        "--last",
        type=int,
        metavar="N",
        help="limit the most-recent set to N traces",
    )
    trace_dump.add_argument(
        "--slowest",
        type=int,
        metavar="N",
        help="limit the slowest set to N traces",
    )
    trace_dump.add_argument(
        "--json",
        action="store_true",
        help="print the raw dump-traces payload instead of span trees",
    )
    trace_dump.set_defaults(func=_cmd_trace_dump)

    serve = sub.add_parser(
        "serve",
        help="run the allocation service daemon (see docs/service.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=7311,
        help="TCP command port; 0 picks an ephemeral one (default 7311)",
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        help="also serve the command protocol on this unix socket",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        metavar="PORT",
        help="serve HTTP GET /metrics (prometheus text) and /metrics.json here",
    )
    serve.add_argument(
        "--port-file",
        metavar="FILE",
        help="write the bound TCP port here (for scripts using --port 0)",
    )
    serve.add_argument(
        "--snapshot",
        metavar="FILE",
        help=(
            "snapshot file: resumed at startup when present, written by"
            " the snapshot command, auto-snapshots and shutdown"
        ),
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=0,
        metavar="N",
        help="auto-snapshot after every N mutations (default 0: disabled)",
    )
    serve.add_argument(
        "--no-resume",
        action="store_true",
        help="start empty even when the snapshot file exists",
    )
    serve.add_argument(
        "--levels",
        default="RC,SI,SSI",
        help="class of levels the daemon allocates over (default RC,SI,SSI)",
    )
    serve.add_argument(
        "--admission-floor",
        type=float,
        default=0.0,
        metavar="FRAC",
        help=(
            "reject admissions dropping the fraction of transactions below"
            " the top level under FRAC (default 0: disabled)"
        ),
    )
    serve.add_argument(
        "--max-promotions",
        type=int,
        default=None,
        metavar="N",
        help="reject admissions promoting more than N existing transactions",
    )
    serve.add_argument(
        "--admission-mode",
        choices=("reject", "queue"),
        default="reject",
        help="what to do with refused transactions (default reject)",
    )
    serve.add_argument(
        "--eventlog",
        metavar="FILE",
        help=(
            "append structured JSON-lines events (requests, admissions,"
            " SLO alerts, lifecycle) to FILE"
        ),
    )
    serve.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "alert when the streaming request p99 exceeds MS: flips the"
            " slo_p99_breached gauge and logs alert events"
        ),
    )
    _add_trace_flag(serve)
    serve.set_defaults(func=_cmd_serve)

    service = sub.add_parser(
        "service", help="tools for a running daemon (top)"
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)

    service_top = service_sub.add_parser(
        "top",
        help=(
            "live console: rolling rates, latency quantiles and gauges of"
            " a running daemon, refreshed in place"
        ),
    )
    _add_daemon_endpoint(service_top)
    service_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between refreshes (default 2)",
    )
    service_top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames and exit (default: run until Ctrl-C)",
    )
    service_top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (CI/pipes)",
    )
    service_top.set_defaults(func=_cmd_service_top)

    simulate = sub.add_parser(
        "simulate",
        help=(
            "run a workload on the MVCC engine; the sentinel workload"
            " 'sweep' runs a contention sweep instead"
        ),
    )
    simulate.add_argument(
        "workload", help="workload file, or the literal 'sweep' for a sweep"
    )
    simulate.add_argument(
        "--allocation", help="per-transaction levels (workload file)"
    )
    simulate.add_argument(
        "--uniform", help="one level for all transactions (workload file)"
    )
    simulate.add_argument("--seed", type=int, default=0, help="base RNG seed")
    simulate.add_argument(
        "--runs",
        type=int,
        help="number of executions (workload file; default 5)",
    )
    simulate.add_argument(
        "--benchmark",
        help=(
            "sweep benchmark (smallbank, ycsb, tpcc, figure2, example26;"
            " default smallbank)"
        ),
    )
    simulate.add_argument(
        "--points",
        help="comma-separated contention-knob values for the sweep",
    )
    simulate.add_argument(
        "--transactions",
        type=int,
        help="base workload size the allocation is computed on (sweep; default 20)",
    )
    simulate.add_argument(
        "--repeat",
        type=int,
        help="instance-stream multiplier (default: 1 for a file, 50 for sweep)",
    )
    simulate.add_argument(
        "--sessions",
        type=int,
        help=(
            "concurrent simulated sessions (default: one per instance for"
            " a file, 8 for sweep)"
        ),
    )
    simulate.add_argument(
        "--strategies",
        help="allocation strategies the sweep compares (default optimal,ssi,si)",
    )
    simulate.add_argument(
        "--json",
        metavar="FILE",
        help="write the machine-readable sweep results to FILE (sweep)",
    )
    simulate.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print execution counters (blocks, retries, wait time, operations,"
            " simulated time, throughput, latency percentiles)"
        ),
    )
    _add_trace_flag(simulate)
    simulate.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.

    With ``--trace FILE`` the whole subcommand runs under a live
    :class:`~repro.observability.Tracer` and the span trace is written to
    ``FILE`` as JSON afterwards (even when the subcommand exits non-zero,
    e.g. ``check`` finding a counterexample — the trace of a failing run
    is usually the interesting one).  ``--trace-memory`` additionally
    runs the command under :mod:`tracemalloc` and stamps peak/current
    allocation deltas on the top-level spans.  Without the flags the
    no-op tracer stays installed and all output is byte-identical to a
    build without tracing.

    A :class:`~repro.service.handlers.CommandError` from any subcommand
    prints ``repro: error: <message>`` to stderr and returns 2.  When
    stdout's reader has gone (``repro trace report F | head -1``) the
    command stops quietly and returns 141, what a shell reports for a
    process killed by SIGPIPE.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _run(parser, args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except CommandError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Run the parsed subcommand, under a tracer when ``--trace`` asks."""
    trace_path = getattr(args, "trace", None)
    trace_memory = bool(getattr(args, "trace_memory", False))
    if not trace_path:
        if trace_memory:
            parser.error("--trace-memory requires --trace FILE")
        return args.func(args)
    _check_writable(trace_path)
    tracer = Tracer(trace_memory=trace_memory)
    if trace_memory:
        import tracemalloc

        tracemalloc.start()
    try:
        with use_tracer(tracer):
            status = args.func(args)
    finally:
        if trace_memory:
            import tracemalloc

            tracemalloc.stop()
    with _writing(trace_path):
        tracer.write(trace_path)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
