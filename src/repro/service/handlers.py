"""Reusable command plumbing shared by the CLI and the daemon.

``repro``'s subcommands and ``repro serve``'s envelopes accept the same
inputs — workload files, trace files, ``T1=RC,T2=SSI`` allocation
specs and ``RC,SI`` level classes — and parse them here.  Errors are
:class:`CommandError`; frontends translate it: the CLI to one
``repro: error:`` line and exit status 2, the daemon to a
``bad-request`` envelope.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..core.isolation import Allocation, IsolationLevel
from ..core.workload import Workload, parse_workload
from ..observability import validate_trace_file

if TYPE_CHECKING:
    from ..core.context import AnalysisContext
    from ..templates import TransactionTemplate

__all__ = [
    "CommandError",
    "allocation_from_pairs",
    "load_templates_file",
    "load_trace_file",
    "load_workload_file",
    "parse_allocation_spec",
    "parse_level",
    "parse_levels_spec",
    "shard_report_line",
]


class CommandError(ValueError):
    """A malformed command input (bad spec, missing transaction, ...)."""


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the ``what`` file at ``path``.

    A missing or unreadable file and bytes that are not UTF-8 raise
    :class:`CommandError`.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CommandError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise CommandError(f"{what} {path} is not UTF-8 text") from None


def load_workload_file(path: str) -> Workload:
    """Parse the workload text file at ``path``.

    A missing or unreadable file, bytes that are not UTF-8 and a
    malformed workload all raise :class:`CommandError`.
    """
    text = _read_text(path, "workload")
    try:
        return parse_workload(text)
    except ValueError as exc:  # WorkloadError, or a non-positive tid
        raise CommandError(f"bad workload {path}: {exc}") from None


def load_templates_file(path: str) -> List[TransactionTemplate]:
    """Parse the transaction-template file at ``path``.

    Read like :func:`load_workload_file`: a missing or unreadable file,
    bytes that are not UTF-8 and malformed templates all raise
    :class:`CommandError`.
    """
    from ..templates import parse_templates

    text = _read_text(path, "template file")
    try:
        return parse_templates(text)
    except ValueError as exc:  # TemplateError
        raise CommandError(f"bad template file {path}: {exc}") from None


def load_trace_file(path: str) -> Dict[str, object]:
    """Load and validate the ``--trace`` export at ``path``.

    A missing or unreadable file, non-JSON content and a document that
    fails the trace schema all raise :class:`CommandError`.
    """
    try:
        return validate_trace_file(path)
    except OSError as exc:
        raise CommandError(f"cannot read trace {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not UTF-8, not JSON, or not a trace
        raise CommandError(f"bad trace {path}: {exc}") from None


def parse_allocation_spec(
    workload: Workload, spec: Optional[str], uniform: Optional[str]
) -> Allocation:
    """An allocation from a ``T1=RC,...`` spec or a uniform level.

    Exactly one of ``spec``/``uniform`` may be given; with neither the
    default is uniform SI (the paper's baseline ``A_SI``).  The
    allocation must cover the workload exactly as the CLI always
    required.
    """
    if spec and uniform:
        raise CommandError("use either an allocation spec or a uniform level, not both")
    if spec:
        pairs = (part.partition("=")[::2] for part in spec.split(","))
        return allocation_from_pairs(workload.tids, pairs)
    return Allocation.uniform(workload, parse_level(uniform or "SI"))


def allocation_from_pairs(
    tids: Iterable[int], pairs: Iterable[Tuple[str, str]]
) -> Allocation:
    """An allocation covering the transactions ``tids`` from
    ``(tid, level)`` pairs such as ``("T1", "RC")``: the CLI's spec and
    the daemon's ``check``."""
    levels = {}
    for key, value in pairs:
        key = key.strip()
        tid = key.lstrip("Tt")
        if not tid.isdecimal():
            raise CommandError(f"bad allocation key {key!r}; use T<i>")
        levels[int(tid)] = parse_level(value)
    missing = [tid for tid in tids if tid not in levels]
    if missing:
        raise CommandError(f"allocation misses transactions {sorted(missing)}")
    return Allocation(levels)


#: Each level by its exact name, the spelling clients send.
_BY_NAME: Dict[str, IsolationLevel] = dict(IsolationLevel.__members__)


def parse_level(text: str) -> IsolationLevel:
    """One isolation level by name, e.g. ``"SI"``: an exact name is one
    table lookup, any other spelling goes through
    :meth:`IsolationLevel.parse <repro.core.isolation.IsolationLevel.parse>`."""
    level = _BY_NAME.get(text)
    if level is not None:
        return level
    try:
        return IsolationLevel.parse(text)
    except ValueError as exc:
        raise CommandError(str(exc)) from None


def parse_levels_spec(spec: str) -> List[IsolationLevel]:
    """A level class from a comma list, e.g. ``"RC,SI"`` or ``"RC,SI,SSI"``."""
    return [parse_level(part) for part in spec.split(",")]


def shard_report_line(context: AnalysisContext) -> str:
    """The ``--stats`` shard line: the context's conflict-component count
    and sizes."""
    sizes = [len(component.tids) for component in context.components()]
    rendered = ", ".join(str(size) for size in sizes) if sizes else "-"
    return f"Shards: {len(sizes)} (sizes: {rendered})"
