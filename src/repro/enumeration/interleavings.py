"""Enumeration of operation interleavings of a workload.

An interleaving is a total order over all operations of all transactions
that respects each transaction's program order — the ``<=_s`` component of
a schedule.  The number of interleavings is the multinomial coefficient
``(sum k_i)! / prod(k_i!)``, which is what makes brute-force robustness
checking explode (and the polynomial Algorithm 1 worthwhile).
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

from ..core.operations import Operation
from ..core.workload import Workload


def interleaving_count(workload: Workload) -> int:
    """The exact number of interleavings of the workload's operations."""
    lengths = [len(txn) for txn in workload]
    total = math.factorial(sum(lengths))
    for length in lengths:
        total //= math.factorial(length)
    return total


def interleavings(workload: Workload) -> Iterator[Tuple[Operation, ...]]:
    """Yield every interleaving of the workload's operations.

    Operations within each transaction appear in program order; across
    transactions all merge orders are produced.  The enumeration is
    depth-first and deterministic (transactions advance in ascending id
    order at each branch point).
    """
    sequences = [txn.operations for txn in workload]
    total = sum(len(seq) for seq in sequences)
    indices = [0] * len(sequences)
    prefix: List[Operation] = []

    def extend() -> Iterator[Tuple[Operation, ...]]:
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for i, seq in enumerate(sequences):
            if indices[i] < len(seq):
                prefix.append(seq[indices[i]])
                indices[i] += 1
                yield from extend()
                indices[i] -= 1
                prefix.pop()

    return extend()
