"""YCSB-style key-value workloads with Zipfian access skew.

The Yahoo! Cloud Serving Benchmark's core workloads are the standard way
to express key-value contention profiles.  This module generates
transactional variants (each transaction bundles a few YCSB operations)
over a Zipfian key distribution — the skew knob ``theta`` interpolates
between uniform (``0``) and heavily hot-spotted (``~0.99``), which drives
the robustness/allocation sweeps more realistically than a binary hot
set.

Workload letters follow YCSB:

* ``A`` — update heavy (50/50 read/update);
* ``B`` — read mostly (95/5);
* ``C`` — read only;
* ``F`` — read-modify-write.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.operations import Operation, read, write
from ..core.transactions import Transaction
from ..core.workload import Workload

#: Update probability per YCSB workload letter.
YCSB_MIXES: Dict[str, float] = {"A": 0.5, "B": 0.05, "C": 0.0, "F": 0.5}


class ZipfianGenerator:
    """Draws keys ``0..n-1`` with Zipfian skew ``theta``.

    Uses the exact inverse-CDF over precomputed cumulative weights, which
    is plenty fast for the key counts robustness analysis needs and has
    no approximation caveats.
    """

    def __init__(self, n: int, theta: float = 0.8):
        if n < 1:
            raise ValueError("need at least one key")
        if not 0.0 <= theta < 1.5:
            raise ValueError(f"theta out of the sensible range [0, 1.5), got {theta}")
        self.n = n
        self.theta = theta
        weights = [1.0 / math.pow(rank, theta) for rank in range(1, n + 1)]
        total = 0.0
        self._cumulative: List[float] = []
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        """One key; key 0 is the hottest."""
        point = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point)


@dataclass(frozen=True)
class YcsbConfig:
    """Knobs of the YCSB-style generator.

    Attributes:
        workload: YCSB letter (``A``, ``B``, ``C`` or ``F``).
        transactions: number of transactions.
        keys: size of the keyspace.
        operations_per_transaction: YCSB ops bundled per transaction.
        theta: Zipfian skew (0 = uniform).
    """

    workload: str = "A"
    transactions: int = 10
    keys: int = 100
    operations_per_transaction: int = 3
    theta: float = 0.8

    def __post_init__(self) -> None:
        if self.workload not in YCSB_MIXES:
            raise ValueError(
                f"unknown YCSB workload {self.workload!r};"
                f" pick one of {sorted(YCSB_MIXES)}"
            )
        if self.transactions < 0:
            raise ValueError("transactions must be non-negative")
        if self.keys < 1:
            raise ValueError("need at least one key")
        if self.operations_per_transaction < 1:
            raise ValueError("need at least one operation per transaction")


def ycsb_workload(config: Optional[YcsbConfig] = None, seed: int = 0, **overrides) -> Workload:
    """Generate a transactional YCSB-style workload.

    Each transaction draws ``operations_per_transaction`` Zipfian keys
    (deduplicated) and performs a read or, with the letter's update
    probability, a read-modify-write (workload ``F`` always RMWs).

    Examples:
        >>> wl = ycsb_workload(workload="C", transactions=3, seed=1)
        >>> all(not txn.write_set for txn in wl)
        True
    """
    if config is None:
        config = YcsbConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")
    rng = random.Random(seed)
    zipf = ZipfianGenerator(config.keys, config.theta)
    update_probability = YCSB_MIXES[config.workload]
    txns: List[Transaction] = []
    for tid in range(1, config.transactions + 1):
        chosen: List[int] = []
        attempts = 0
        while (
            len(chosen) < config.operations_per_transaction
            and attempts < 50 * config.operations_per_transaction
        ):
            attempts += 1
            key = zipf.sample(rng)
            if key not in chosen:
                chosen.append(key)
        ops: List[Operation] = []
        for key in chosen:
            obj = f"k{key}"
            is_update = config.workload == "F" or rng.random() < update_probability
            ops.append(read(tid, obj))
            if is_update:
                ops.append(write(tid, obj))
        txns.append(Transaction(tid, ops))
    return Workload(txns)
