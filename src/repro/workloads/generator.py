"""Parametric random workload generation.

Robustness behaviour is driven by contention: how often transactions touch
the same objects, and with how many writes.  The generator exposes exactly
those knobs, so benchmarks can sweep them (see
``benchmarks/bench_allocation_quality.py``):

* a pool of ``objects`` of which ``hot_objects`` form a hot set accessed
  with probability ``hot_probability``;
* how many distinct objects each transaction accesses (``min_ops`` to
  ``max_ops``) and a write probability;
* a seeded RNG for reproducibility.

``min_ops`` and ``max_ops`` bound the *objects* a transaction accesses,
not its operations: a read-modify-write accesses one object with a read
and a write, so a transaction can have more reads and writes than
objects (see :class:`GeneratorConfig`).  :func:`clustered_workload`
counts the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..core.operations import Operation, read, write
from ..core.transactions import Transaction
from ..core.workload import Workload


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random workload generator.

    Attributes:
        transactions: number of transactions to generate.
        objects: size of the object pool (objects are named ``x0, x1, ...``).
        min_ops: minimum number of distinct objects a transaction accesses.
        max_ops: maximum number of distinct objects a transaction accesses
            (fewer when the pool runs out of fresh objects).  A
            read-modify-write accesses its object with two operations, so
            a transaction has at least as many reads and writes as
            objects, and often more.
        write_probability: probability that an accessed object is written
            (a written object may additionally be read first).
        read_before_write_probability: probability that a write is preceded
            by a read of the same object (read-modify-write pattern).
        hot_objects: size of the hot set (0 disables hotspotting).
        hot_probability: probability that an access goes to the hot set.

    Examples:
        Six objects per transaction, seven to nine reads and writes:

        >>> w = random_workload(
        ...     transactions=10, objects=10, min_ops=6, max_ops=6, seed=3
        ... )
        >>> sorted({len(t.read_set | t.write_set) for t in w})
        [6]
        >>> accesses = [len(t.body) for t in w]  # reads and writes, no commit
        >>> min(accesses), max(accesses), sum(accesses)
        (7, 9, 82)
    """

    transactions: int = 10
    objects: int = 20
    min_ops: int = 2
    max_ops: int = 5
    write_probability: float = 0.5
    read_before_write_probability: float = 0.5
    hot_objects: int = 0
    hot_probability: float = 0.8

    def __post_init__(self) -> None:
        if self.transactions < 0:
            raise ValueError("transactions must be non-negative")
        if self.objects < 1:
            raise ValueError("need at least one object")
        if not 0 < self.min_ops <= self.max_ops:
            raise ValueError("need 0 < min_ops <= max_ops")
        if not 0.0 <= self.write_probability <= 1.0:
            raise ValueError("write_probability must be in [0, 1]")
        if not 0.0 <= self.read_before_write_probability <= 1.0:
            raise ValueError("read_before_write_probability must be in [0, 1]")
        if self.hot_objects < 0 or self.hot_objects > self.objects:
            raise ValueError("hot_objects must be in [0, objects]")
        if not 0.0 <= self.hot_probability <= 1.0:
            raise ValueError("hot_probability must be in [0, 1]")


def _pick_object(config: GeneratorConfig, rng: random.Random) -> str:
    if config.hot_objects and rng.random() < config.hot_probability:
        return f"x{rng.randrange(config.hot_objects)}"
    return f"x{rng.randrange(config.objects)}"


def _random_transaction(
    tid: int, config: GeneratorConfig, rng: random.Random
) -> Transaction:
    target_accesses = rng.randint(config.min_ops, config.max_ops)
    ops: List[Operation] = []
    seen_reads: set = set()
    seen_writes: set = set()
    attempts = 0
    while len(seen_reads | seen_writes) < target_accesses and attempts < 50 * target_accesses:
        attempts += 1
        obj = _pick_object(config, rng)
        if rng.random() < config.write_probability:
            if obj in seen_writes:
                continue
            if (
                obj not in seen_reads
                and rng.random() < config.read_before_write_probability
            ):
                ops.append(read(tid, obj))
                seen_reads.add(obj)
            ops.append(write(tid, obj))
            seen_writes.add(obj)
        else:
            if obj in seen_reads or obj in seen_writes:
                continue
            ops.append(read(tid, obj))
            seen_reads.add(obj)
    if not ops:
        obj = _pick_object(config, rng)
        ops.append(read(tid, obj))
    return Transaction(tid, ops)


def random_workload(
    config: Optional[GeneratorConfig] = None,
    seed: int = 0,
    **overrides,
) -> Workload:
    """Generate a random workload.

    Either pass a :class:`GeneratorConfig` or individual knobs as keyword
    arguments.  The same ``(config, seed)`` pair always yields the same
    workload.

    Examples:
        >>> w = random_workload(transactions=4, objects=6, seed=7)
        >>> len(w)
        4
    """
    if config is None:
        config = GeneratorConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")
    rng = random.Random(seed)
    return Workload(
        _random_transaction(tid, config, rng)
        for tid in range(1, config.transactions + 1)
    )


def clustered_workload(
    components: int = 4,
    per_component: int = 5,
    objects_per_component: int = 6,
    min_ops: int = 2,
    max_ops: int = 4,
    write_probability: float = 0.5,
    seed: int = 0,
) -> Workload:
    """Generate a workload with at least ``components`` conflict components.

    Each cluster draws from a private object pool (``c<k>x<i>`` names), so
    transactions of different clusters can never conflict — the conflict
    graph has at least ``components`` connected components (more when a
    cluster happens to fragment internally).  Transaction ids are assigned
    round-robin across clusters, so each shard's tid range interleaves
    with every other's — the worst case for any code that assumes shards
    are contiguous tid blocks.

    This is the workload family behind the ``allocate-clustered``
    benchmark workload and the per-component/whole-workload
    equivalence suite.

    Examples:
        >>> from repro.core.sharding import conflict_components
        >>> w = clustered_workload(components=3, per_component=2, seed=1)
        >>> len(w)
        6
        >>> len(conflict_components(w)) >= 3
        True
    """
    if components < 1:
        raise ValueError("need at least one component")
    if per_component < 1:
        raise ValueError("need at least one transaction per component")
    rng = random.Random(seed)
    transactions: List[Transaction] = []
    tid = 0
    # Round-robin tid -> cluster: tid k belongs to cluster k % components.
    for _ in range(per_component):
        for comp in range(components):
            tid += 1
            target = rng.randint(min_ops, max_ops)
            ops: List[Operation] = []
            seen_reads: set = set()
            seen_writes: set = set()
            attempts = 0
            while (
                len(seen_reads | seen_writes) < target
                and attempts < 50 * target
            ):
                attempts += 1
                obj = f"c{comp}x{rng.randrange(objects_per_component)}"
                if rng.random() < write_probability:
                    if obj in seen_writes:
                        continue
                    ops.append(write(tid, obj))
                    seen_writes.add(obj)
                else:
                    if obj in seen_reads or obj in seen_writes:
                        continue
                    ops.append(read(tid, obj))
                    seen_reads.add(obj)
            if not ops:
                ops.append(read(tid, f"c{comp}x0"))
            transactions.append(Transaction(tid, ops))
    return Workload(transactions)
