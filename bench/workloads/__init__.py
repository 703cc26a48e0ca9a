"""The four benchmark workloads and the pieces they share.

Each workload is an object with one method per phase of a round:

* ``generate(seed, rounds)`` — in the parent, before any timer: the
  inputs of every round, as JSON-ready data derived only from ``seed``;
* ``setup(inputs, workdir)`` — in the round's child, before its READY
  line (counted in ``setup_s``);
* ``cycles(state)`` / ``cycle(state, i)`` — the timed closed loop; one
  cycle is one or more timed :class:`Sample` s;
* ``finish(state, done)`` — after the timed phase: teardown, peak RSS and
  anything read back from the program;
* ``check(state, done)`` — output checks, returning problems, the outputs
  pinned in ``bench/expected.json`` and facts about the inputs;
* ``trace(state, done, tracer)`` — the traced replay, returning per-layer
  metrics;
* ``close(state)`` — always runs; stops anything ``setup`` started.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass
class Sample:
    """One timed operation.

    ``ops`` counts toward ``throughput_per_s``; ``tries`` and ``fails``
    toward ``failed_frac`` (for the sweep they count simulated instances).
    """

    kind: str
    seconds: float
    ops: float = 1.0
    tries: int = 1
    fails: int = 0

    def row(self) -> list:
        return [self.kind, self.seconds, self.ops, self.tries, self.fails]


def resolve(module: str, attr: str) -> Any:
    """``module.attr`` from the program, or ``None`` if a change removed it.

    The traced replays call layer functions through this, so a deleted
    public function turns its metrics into ``missing`` instead of a crash.
    """
    try:
        value: Any = importlib.import_module(module)
    except ImportError:
        return None
    for part in attr.split("."):
        value = getattr(value, part, None)
        if value is None:
            return None
    return value


def mean_ms(summary: Dict[str, Dict[str, float]], name: str, scale: float = 1.0) -> Optional[float]:
    """Mean inclusive duration of span ``name`` in ms (times ``scale``)."""
    row = summary.get(name)
    if not row or not row["count"]:
        return None
    return row["total_ms"] / row["count"] * scale


def ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    """``numerator / denominator``; ``None`` if either is unknown, 0 over 0 is 0."""
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def registry() -> Dict[str, Any]:
    """Workload name -> workload object, in the order rounds interleave."""
    from .allocate import AllocateWorkload
    from .serve import ServeChurn
    from .sweep import SimSweep

    return {
        "allocate-dense": AllocateWorkload.dense(),
        "allocate-clustered": AllocateWorkload.clustered(),
        "serve-churn": ServeChurn(),
        "sim-sweep": SimSweep(),
    }
