"""Contention sweeps: what an optimal allocation buys at runtime.

The paper proves which allocations are *robust*; this module measures
what the optimal robust allocation is *worth*.  For each benchmark a
contention knob is swept (SmallBank/TPC-C shrink the key space, YCSB
raises the Zipfian ``theta``), and at every point the same instance
stream is simulated under three allocations:

* ``optimal`` — Algorithm 2's optimal robust allocation of the base
  workload (each instance inherits its template's level);
* ``ssi`` — everything at SSI (the safe default a DBA would pick);
* ``si`` — everything at SI (cheap, but *not* robust in general — its
  abort column shows what FCW costs, not a correctness endorsement).

The headline curve: ``optimal`` matches or beats ``ssi`` on throughput
with a lower abort rate, because transactions Algorithm 2 sends to RC/SI
never pay SSI's dangerous-structure aborts.

Results feed three consumers: the CLI table (``repro simulate sweep``),
the machine-readable JSON the CI smoke job schema-checks, and the
``sim-sweep`` workload of the repository benchmark (``bench/``).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.allocation import optimal_allocation
from ..core.isolation import Allocation, IsolationLevel
from ..core.workload import Workload
from ..observability import current_tracer
from ..workloads.paper_examples import example26_workload, figure2_workload
from ..workloads.smallbank import SmallBankConfig, smallbank_workload
from ..workloads.tpcc import TpccConfig, tpcc_workload
from ..workloads.ycsb import ycsb_workload
from .simulator import SimConfig, SimStats, simulate_workload

#: Allocation strategies compared at every sweep point.
STRATEGIES = ("optimal", "ssi", "si")


@dataclass(frozen=True)
class SweepPoint:
    """One (contention level, allocation strategy) measurement.

    ``series`` carries the windowed telemetry of the cell (see
    :meth:`~repro.mvcc.simulator.SimStats.series_dict`): per-window
    commit/abort counts and mean latency over simulated time, plus the
    streaming latency histogram summary.
    """

    benchmark: str
    knob: str
    value: object
    strategy: str
    commits: int
    aborts: Dict[str, int]
    operations: int
    sim_time: float
    wall_s: float
    throughput: float
    abort_rate: float
    latency: Dict[str, float]
    series: Dict[str, object] = field(default_factory=dict)

    @property
    def case(self) -> str:
        """Stable row key, e.g. ``smallbank:optimal:customers=2``."""
        return f"{self.benchmark}:{self.strategy}:{self.knob}={self.value}"

    def to_json(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "benchmark": self.benchmark,
            "knob": self.knob,
            "value": self.value,
            "strategy": self.strategy,
            "commits": self.commits,
            "aborts": dict(self.aborts),
            "operations": self.operations,
            "sim_time": self.sim_time,
            "wall_s": self.wall_s,
            "throughput": self.throughput,
            "abort_rate": self.abort_rate,
            "latency": dict(self.latency),
            "series": dict(self.series),
        }


@dataclass
class SweepResult:
    """All points of one contention sweep."""

    benchmark: str
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def total_operations(self) -> int:
        """Simulated operations across every point."""
        return sum(point.operations for point in self.points)

    def to_json(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "total_operations": self.total_operations,
            "points": [point.to_json() for point in self.points],
        }

    def table(self) -> str:
        """A fixed-width comparison table, one row per point."""
        header = (
            f"{'case':<38} {'commits':>8} {'aborts':>7} {'ops':>9}"
            f" {'thr':>8} {'abort%':>7} {'p50':>7} {'p95':>7} {'p99':>7}"
        )
        lines = [header, "-" * len(header)]
        for point in self.points:
            lines.append(
                f"{point.case:<38} {point.commits:>8} {sum(point.aborts.values()):>7}"
                f" {point.operations:>9} {point.throughput:>8.3f}"
                f" {100.0 * point.abort_rate:>6.2f}%"
                f" {point.latency['p50']:>7.1f} {point.latency['p95']:>7.1f}"
                f" {point.latency['p99']:>7.1f}"
            )
        return "\n".join(lines)


def _allocations(workload: Workload) -> Dict[str, Allocation]:
    optimal = optimal_allocation(workload)
    assert optimal is not None  # always exists over {RC, SI, SSI}
    return {
        "optimal": optimal,
        "ssi": Allocation.uniform(workload, IsolationLevel.SSI),
        "si": Allocation.uniform(workload, IsolationLevel.SI),
    }


def _simulate_point(
    base: Workload, strategies: Sequence[str], repeat: int, config: SimConfig
) -> Iterator[Tuple[str, SimStats, float]]:
    """Simulate one knob value under each strategy, in order.

    Each strategy runs ``repeat`` rounds of the base workload through
    :func:`~repro.mvcc.simulator.simulate_workload`, which clones no
    instance: an instance is a fresh tid over its program's operations,
    at its program's level.  Yields ``(strategy, stats, wall seconds)``.
    """
    allocations = _allocations(base)
    for strategy in strategies:
        started = _time.perf_counter()
        _, stats = simulate_workload(base, allocations[strategy], config, repeat)
        yield strategy, stats, _time.perf_counter() - started


#: benchmark name -> (knob name, default knob values hot-to-mild,
#: base-workload builder taking (knob value, transactions, seed)).
_BENCHMARKS: Dict[
    str, Tuple[str, Tuple[object, ...], Callable[[object, int, int], Workload]]
] = {
    "smallbank": (
        "customers",
        (2, 4, 8, 16),
        lambda value, transactions, seed: smallbank_workload(
            transactions=transactions,
            config=SmallBankConfig(customers=int(value)),  # type: ignore[arg-type]
            seed=seed,
        ),
    ),
    "ycsb": (
        "theta",
        (1.2, 0.9, 0.5, 0.1),
        lambda value, transactions, seed: ycsb_workload(
            transactions=transactions, theta=float(value), seed=seed  # type: ignore[arg-type]
        ),
    ),
    "tpcc": (
        "warehouses",
        (1, 2, 4),
        lambda value, transactions, seed: tpcc_workload(
            transactions=transactions,
            config=TpccConfig(warehouses=int(value)),  # type: ignore[arg-type]
            seed=seed,
        ),
    ),
    "figure2": (
        "workload",
        ("paper",),
        lambda value, transactions, seed: figure2_workload(),
    ),
    "example26": (
        "workload",
        ("paper",),
        lambda value, transactions, seed: example26_workload(),
    ),
}


def sweep_benchmarks() -> Tuple[str, ...]:
    """The benchmarks :func:`contention_sweep` knows."""
    return tuple(_BENCHMARKS)


def contention_sweep(
    benchmark: str = "smallbank",
    points: Optional[Sequence[object]] = None,
    transactions: int = 20,
    repeat: int = 50,
    sessions: int = 8,
    seed: int = 0,
    strategies: Sequence[str] = STRATEGIES,
    config: Optional[SimConfig] = None,
) -> SweepResult:
    """Sweep a benchmark's contention knob across allocation strategies.

    Args:
        benchmark: one of :func:`sweep_benchmarks`.
        points: knob values to sweep; ``None`` means the benchmark's
            defaults, ordered hottest first.
        transactions: base-workload size the allocation is computed on.
        repeat: instance-stream multiplier — every point simulates
            ``transactions * repeat`` instances.
        sessions: concurrent simulated sessions.
        seed: workload generation and simulation seed.
        strategies: non-empty subset of :data:`STRATEGIES` to compare.
        config: overrides the simulator knobs (``sessions``/``seed``
            are taken from this function's arguments regardless).

    Returns:
        A :class:`SweepResult`; points appear strategy-major within each
        knob value, in the order given.

    Raises:
        ValueError: for an unknown benchmark or strategy, an empty
            ``points`` or ``strategies``, or a ``transactions``,
            ``repeat`` or ``sessions`` below 1.
    """
    try:
        knob, default_points, build = _BENCHMARKS[benchmark]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {benchmark!r}; pick one of {sweep_benchmarks()}"
        ) from None
    unknown = set(strategies) - set(STRATEGIES)
    if unknown:
        raise ValueError(f"unknown strategies {sorted(unknown)}; pick from {STRATEGIES}")
    if not strategies:
        raise ValueError(f"strategies lists no strategy; pick from {STRATEGIES}")
    if points is not None and not points:
        raise ValueError("points lists no knob value; pass None for the defaults")
    if transactions < 1:
        raise ValueError(f"transactions must be >= 1, got {transactions}")
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    sim_config = replace(
        config or SimConfig(record_trace=False, max_attempts=1000),
        sessions=sessions,
        seed=seed,
    )
    result = SweepResult(benchmark)
    with current_tracer().span(
        "mvcc.sweep", benchmark=benchmark, repeat=repeat
    ) as sweep_span:
        for value in points if points is not None else default_points:
            base = build(value, transactions, seed)
            for strategy, stats, wall_s in _simulate_point(
                base, strategies, repeat, sim_config
            ):
                result.points.append(
                    SweepPoint(
                        benchmark=benchmark,
                        knob=knob,
                        value=value,
                        strategy=strategy,
                        commits=stats.commits,
                        aborts=dict(stats.aborts),
                        operations=stats.operations,
                        sim_time=stats.sim_time,
                        wall_s=wall_s,
                        throughput=stats.throughput,
                        abort_rate=stats.abort_rate,
                        latency=stats.latency_percentiles(),
                        series=stats.series_dict(),
                    )
                )
        sweep_span.set(
            points=len(result.points), operations=result.total_operations
        )
    return result
