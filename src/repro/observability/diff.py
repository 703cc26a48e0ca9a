"""Noise-aware comparison of two traces.

:func:`diff_traces` compares two ``--trace`` exports on their per-phase
total time (:func:`~repro.observability.phase_totals`: the histogram
sums of a version-2 trace, the timer totals of a version-1 one): "did
``robustness.scan_t1`` get slower between these two runs?".

Wall-clock measurements are noisy, so a phase only counts as a
**regression** when it clears *both* thresholds:

* the **relative** threshold — ``current > base * (1 + max_regress)``
  (default 25%); and
* the **absolute floor** — ``current - base > abs_floor_s`` (default
  1 ms), so microsecond-scale phases can never fail on jitter.

Both thresholds must be non-negative numbers: a negative one would flag
an unchanged phase, and NaN would clear every comparison.  Improvements
are classified symmetrically (reported, never fatal).  Phases recorded
on one side only are *skipped*, not failed.  The report is
machine-readable via :meth:`DiffReport.as_dict` (the CLI's ``--json``)
and drives the exit code of ``repro trace diff``.

Timing claims across commits come from the calibrated harness in
``bench/``, not from a trace diff.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from .tracer import phase_totals, validate_trace_file

__all__ = [
    "DEFAULT_ABS_FLOOR_S",
    "DEFAULT_MAX_REGRESS",
    "DiffEntry",
    "DiffReport",
    "diff_totals",
    "diff_trace_files",
    "diff_traces",
]

#: Default relative regression threshold (fraction: 0.25 == +25%).
DEFAULT_MAX_REGRESS = 0.25

#: Default absolute floor in seconds: deltas below it are never flagged.
DEFAULT_ABS_FLOOR_S = 0.001

_STATUS_ORDER = ("regression", "improvement", "ok", "skipped")


@dataclass
class DiffEntry:
    """One compared span name.

    ``status`` is one of ``"regression"``, ``"improvement"``, ``"ok"``
    or ``"skipped"`` (recorded on one side only).
    """

    key: str
    base_s: Optional[float]
    current_s: Optional[float]
    status: str
    note: str = ""

    @property
    def ratio(self) -> Optional[float]:
        """``current / base``, or ``None`` when either side is missing."""
        if self.base_s is None or self.current_s is None or self.base_s <= 0:
            return None
        return self.current_s / self.base_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "base_s": self.base_s,
            "current_s": self.current_s,
            "ratio": self.ratio,
            "status": self.status,
            "note": self.note,
        }


@dataclass
class DiffReport:
    """The full comparison: entries, thresholds, and the verdict."""

    entries: List[DiffEntry]
    max_regress: float
    abs_floor_s: float

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "regression"]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "improvement"]

    @property
    def compared(self) -> int:
        """Names timed on both sides (everything but skipped)."""
        return sum(1 for e in self.entries if e.status != "skipped")

    @property
    def verdict(self) -> str:
        """``"regression"`` iff any name regressed, else ``"ok"``."""
        return "regression" if self.regressions else "ok"

    @property
    def exit_code(self) -> int:
        """The CLI exit status: 0 ok, 1 regression."""
        return 1 if self.regressions else 0

    def as_dict(self) -> Dict[str, object]:
        """The machine-readable verdict document (CLI ``--json``)."""
        return {
            "verdict": self.verdict,
            "max_regress": self.max_regress,
            "abs_floor_s": self.abs_floor_s,
            "compared": self.compared,
            "skipped": len(self.entries) - self.compared,
            "entries": [entry.as_dict() for entry in self.entries],
        }

    def render(self) -> str:
        """An aligned human-readable table plus the verdict line."""
        lines: List[str] = []
        shown = sorted(
            self.entries, key=lambda e: _STATUS_ORDER.index(e.status)
        )
        if shown:
            width = max(len(e.key) for e in shown)
            lines.append(
                f"  {'entry':<{width}}  {'baseline':>12}  {'current':>12}"
                f"  {'ratio':>7}  status"
            )
            for entry in shown:
                base = "-" if entry.base_s is None else f"{entry.base_s * 1e3:.3f}ms"
                cur = (
                    "-"
                    if entry.current_s is None
                    else f"{entry.current_s * 1e3:.3f}ms"
                )
                ratio = "-" if entry.ratio is None else f"{entry.ratio:.2f}x"
                suffix = f"  ({entry.note})" if entry.note else ""
                lines.append(
                    f"  {entry.key:<{width}}  {base:>12}  {cur:>12}"
                    f"  {ratio:>7}  {entry.status}{suffix}"
                )
        else:
            lines.append("  (nothing to compare)")
        lines.append("")
        lines.append(
            f"Verdict: {self.verdict.upper()}"
            f" — {self.compared} compared,"
            f" {len(self.entries) - self.compared} skipped,"
            f" {len(self.regressions)} regression(s),"
            f" {len(self.improvements)} improvement(s)"
            f" (thresholds: +{self.max_regress * 100:.0f}% relative,"
            f" {self.abs_floor_s * 1e3:.1f}ms absolute floor)"
        )
        return "\n".join(lines)


def _classify(
    base_s: float, current_s: float, max_regress: float, abs_floor_s: float
) -> str:
    if current_s > base_s * (1.0 + max_regress) and (
        current_s - base_s > abs_floor_s
    ):
        return "regression"
    if base_s > current_s * (1.0 + max_regress) and (
        base_s - current_s > abs_floor_s
    ):
        return "improvement"
    return "ok"


def _entry(
    key: str,
    base_s: Optional[float],
    current_s: Optional[float],
    max_regress: float,
    abs_floor_s: float,
) -> DiffEntry:
    if base_s is None or current_s is None:
        side = "baseline" if base_s is None else "current"
        return DiffEntry(key, base_s, current_s, "skipped", f"no timing in {side}")
    status = _classify(base_s, current_s, max_regress, abs_floor_s)
    return DiffEntry(key, base_s, current_s, status)


def diff_totals(
    base_totals: Mapping[str, float],
    current_totals: Mapping[str, float],
    max_regress: float = DEFAULT_MAX_REGRESS,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
) -> DiffReport:
    """Compare two ``name -> total seconds`` maps name by name.

    Raises :class:`ValueError` when either threshold is negative or NaN.
    """
    for label, value in (("max_regress", max_regress), ("abs_floor_s", abs_floor_s)):
        if not value >= 0:
            raise ValueError(f"{label} must be a number >= 0, got {value!r}")
    entries = [
        _entry(
            name,
            base_totals.get(name),
            current_totals.get(name),
            max_regress,
            abs_floor_s,
        )
        for name in sorted(set(base_totals) | set(current_totals))
    ]
    return DiffReport(entries, max_regress, abs_floor_s)


def diff_traces(
    base: Mapping[str, object],
    current: Mapping[str, object],
    max_regress: float = DEFAULT_MAX_REGRESS,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
) -> DiffReport:
    """Compare two validated trace dicts (either version) on phase totals."""
    return diff_totals(
        phase_totals(base),
        phase_totals(current),
        max_regress=max_regress,
        abs_floor_s=abs_floor_s,
    )


def diff_trace_files(
    base_path: Union[str, Path],
    current_path: Union[str, Path],
    max_regress: float = DEFAULT_MAX_REGRESS,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
) -> DiffReport:
    """Load + validate two ``--trace`` files and diff them."""
    return diff_traces(
        validate_trace_file(base_path),
        validate_trace_file(current_path),
        max_regress=max_regress,
        abs_floor_s=abs_floor_s,
    )
