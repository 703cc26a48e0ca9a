"""Paths, the metric spec and the machine record shared by every bench module."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch space for inputs, round results, daemon snapshots and result
#: files; listed in the root ``.gitignore``.
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
ROUNDS = 3


class BenchError(RuntimeError):
    """A benchmark that cannot run (missing program, crashed child, ...)."""


def require_program() -> None:
    """Put ``src`` first on ``sys.path``; raise unless the program is there.

    The benchmark only ever measures the checkout it sits in, never an
    installed copy, so a directory without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes: the program and this package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: workloads, metric units, directions and bounds."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def machine() -> Dict[str, Any]:
    """The machine a result was measured on; compare refuses mismatches."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        affinity = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def git_commit() -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def peak_rss_mb(pid: object = "self") -> float:
    """A process's peak resident set size in MB, from ``VmHWM``.

    Not ``ru_maxrss``: Linux carries that across ``exec``, so a child's
    value would include the pages its parent had when it forked.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"/proc/{pid}/status has no VmHWM line")


def derive_seed(seed: int, *parts: object) -> int:
    """A stable sub-seed for one workload/round, independent of hash salting."""
    text = ":".join([str(seed), *map(str, parts)])
    value = 0
    for char in text:
        value = (value * 131 + ord(char)) % 2_147_483_647
    return value
