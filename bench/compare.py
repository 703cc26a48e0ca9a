"""``python -m bench compare A.json B.json``: B against baseline A.

One row per workload and end-to-end metric.  A metric regresses when B's
value is worse than A's by more than the metric's bound in
``BENCHMARK.json``; it is ``unresolved`` when the run-to-run spread (of
either side's per-round values) exceeds that bound, unless every round of
B reads better than every round of A.  ``setup_s`` is exempt from the
spread test, as in the regression gate: three start-ups a run spread by
more than any bound, so it is judged on its median and its wide bound
alone.  ``failed_frac`` may never rise.
Results measured on different machines are refused.  When both runs were
traced, the per-layer metrics that moved most follow, for attribution.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import stats
from .common import BenchError, load_spec

LAYER_ROWS = 12


def verdict(a: List[float], b: List[float], lower_is_better: bool, bound: float,
            base: Optional[float] = None, new: Optional[float] = None,
            check_spread: bool = True) -> Tuple[str, float]:
    """``(verdict, change)`` of B against A; change > 0 is worse.

    ``a`` and ``b`` are per-round values; ``base`` and ``new`` the
    reported values (the medians of the rounds when not given).
    """
    base = stats.median(a) if base is None else base
    new = stats.median(b) if new is None else new
    change = (new - base) / base if base else 0.0
    if not lower_is_better:
        change = -change
    better_everywhere = max(b) < min(a) if lower_is_better else min(b) > max(a)
    noisy = max(stats.spread(a), stats.spread(b)) > bound
    if check_spread and noisy and not better_everywhere:
        return "unresolved", change
    if change > bound:
        return "REGRESSION", change
    if change < -bound:
        return "improved", change
    return "ok", change


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> Tuple[List[str], int]:
    """The report lines and the number of regressions."""
    if a["machine"] != b["machine"]:
        raise BenchError(
            f"refusing to compare results from different machines:\n  {a['machine']}\n  {b['machine']}"
        )
    lines = [f"{'workload':<20} {'metric':<18} {'A':>12} {'B':>12} {'worse':>8} {'bound':>6}  verdict"]
    regressions = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            ea, eb = wa["metrics"][metric["name"]], wb["metrics"][metric["name"]]
            result, change = verdict(
                ea["rounds"], eb["rounds"], metric["better"] == "lower", metric["bound"],
                ea["value"], eb["value"], check_spread=metric["name"] != "setup_s",
            )
            regressions += result == "REGRESSION"
            lines.append(
                f"{name:<20} {metric['name']:<18} {ea['value']:>12.6g} {eb['value']:>12.6g}"
                f" {change:>+8.1%} {metric['bound']:>6}  {result}"
            )
        failed = "REGRESSION" if wb["failed_frac"] > wa["failed_frac"] else "ok"
        regressions += failed == "REGRESSION"
        lines.append(
            f"{name:<20} {'failed_frac':<18} {wa['failed_frac']:>12.6g} {wb['failed_frac']:>12.6g}"
            f" {'':>8} {0:>6}  {failed}"
        )
    if a.get("traced") and b.get("traced"):
        lines.append("")
        lines.append(f"largest per-layer moves (B against A, top {LAYER_ROWS}):")
        moves = []
        for name in a["workloads"]:
            if name not in b["workloads"]:
                continue
            for metric, old in a["workloads"][name]["layers"].items():
                new = b["workloads"][name]["layers"].get(metric)
                if isinstance(old, (int, float)) and isinstance(new, (int, float)) and old:
                    moves.append(((new - old) / abs(old), name, metric, old, new))
        moves.sort(key=lambda m: -abs(m[0]))
        for change, name, metric, old, new in moves[:LAYER_ROWS]:
            lines.append(f"  {name:<20} {metric:<44} {old:>12.6g} {new:>12.6g} {change:>+8.1%}")
    return lines, regressions


def command_compare(args) -> int:
    a = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    b = json.loads(Path(args.candidate).read_text(encoding="utf-8"))
    lines, regressions = compare(a, b, load_spec())
    print("\n".join(lines))
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0
