"""Multiversion split schedules (Definition 3.1) and their materialization.

A multiversion split schedule for a workload ``T`` and allocation ``A`` is
based on a sequence of conflicting quadruples

    C = (T_1, b_1, a_2, T_2), (T_2, b_2, a_3, T_3), ..., (T_m, b_m, a_1, T_1)

in which each transaction occurs in at most two quadruples.  The schedule
has the shape

    prefix_{b_1}(T_1) . T_2 . ... . T_m . postfix_{b_1}(T_1) . T_{m+1} ... T_n

subject to eight side conditions; Theorem 3.2 shows that such a schedule
exists iff ``T`` is not robust against ``A``.

:class:`SplitScheduleSpec` validates the shape and the conditions;
:func:`materialize` turns a valid spec into a concrete
:class:`~repro.core.schedules.MVSchedule` (the constructive direction of
Theorem 3.2): the version order is the commit order and reads observe the
last committed version relative to their level's anchor, which are the
forced choices under {RC, SI, SSI}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .conflicts import (
    ConflictQuadruple,
    rw_conflicting,
    transactions_conflict,
)
from .isolation import Allocation, IsolationLevel
from .operations import Operation
from .schedules import MVSchedule, canonical_schedule
from .workload import Workload


@dataclass(frozen=True)
class SplitScheduleSpec:
    """The combinatorial core of a multiversion split schedule.

    Attributes:
        chain: the sequence ``C`` of conflicting quadruples, starting and
            ending at the split transaction ``T_1``.
    """

    chain: Tuple[ConflictQuadruple, ...]

    def __post_init__(self) -> None:
        if len(self.chain) < 2:
            raise ValueError("a split-schedule chain needs at least two quadruples")
        for left, right in zip(self.chain, self.chain[1:]):
            if left.tid_j != right.tid_i:
                raise ValueError(
                    f"chain broken between {left} and {right}"
                )
        if self.chain[-1].tid_j != self.chain[0].tid_i:
            raise ValueError("chain does not return to the split transaction")
        tids = [quad.tid_i for quad in self.chain]
        if len(set(tids)) != len(tids):
            raise ValueError("a transaction occurs in more than two quadruples")

    @property
    def split_tid(self) -> int:
        """``T_1``, the transaction split in two."""
        return self.chain[0].tid_i

    @property
    def b1(self) -> Operation:
        """The split operation ``b_1`` of ``T_1``."""
        return self.chain[0].b

    @property
    def a1(self) -> Operation:
        """The operation ``a_1`` of ``T_1`` closing the cycle."""
        return self.chain[-1].a

    @property
    def a2(self) -> Operation:
        """The operation ``a_2`` of ``T_2`` that ``b_1`` conflicts with."""
        return self.chain[0].a

    @property
    def bm(self) -> Operation:
        """The operation ``b_m`` of ``T_m`` conflicting with ``a_1``."""
        return self.chain[-1].b

    @property
    def middle_tids(self) -> Tuple[int, ...]:
        """``T_2, ..., T_m`` in chain order."""
        return tuple(quad.tid_i for quad in self.chain[1:]) or (self.chain[0].tid_j,)

    @property
    def intermediate_tids(self) -> Tuple[int, ...]:
        """``T_3, ..., T_{m-1}``: the middle transactions other than ``T_2``/``T_m``."""
        return self.middle_tids[1:-1]

    def __str__(self) -> str:
        return " ".join(str(quad) for quad in self.chain)


def condition_failures(
    spec: SplitScheduleSpec, workload: Workload, allocation: Allocation
) -> List[str]:
    """The conditions of Definition 3.1 violated by ``spec`` (empty if valid)."""
    failures: List[str] = []
    t1 = workload[spec.split_tid]
    middle = spec.middle_tids
    t2 = workload[middle[0]]
    tm = workload[middle[-1]]
    level1 = allocation[t1.tid]
    level2 = allocation[t2.tid]
    levelm = allocation[tm.tid]

    # (1) T_1 must not conflict with any intermediate transaction.
    for tid in spec.intermediate_tids:
        if transactions_conflict(t1, workload[tid]):
            failures.append(f"(1) T{t1.tid} conflicts with intermediate T{tid}")

    # (2) / (3) ww-conflicts between T_1 and T_2/T_m.
    split_pos = t1.position(spec.b1)
    for c1 in t1.body:
        if not c1.is_write:
            continue
        in_prefix = t1.position(c1) <= split_pos
        if not in_prefix and level1 is IsolationLevel.RC:
            continue
        which = "(2)" if in_prefix else "(3)"
        for other in (t2, tm):
            if c1.obj in other.write_set:
                failures.append(
                    f"{which} write {c1} ww-conflicts with a write in T{other.tid}"
                )

    # (4) b_1 must be rw-conflicting with a_2.
    if not rw_conflicting(spec.b1, spec.a2):
        failures.append(f"(4) {spec.b1} is not rw-conflicting with {spec.a2}")

    # (5) b_m rw-conflicting with a_1, or RC split with b_1 before a_1.
    if not rw_conflicting(spec.bm, spec.a1):
        rc_case = level1 is IsolationLevel.RC and t1.before(spec.b1, spec.a1)
        if not rc_case:
            failures.append(
                f"(5) {spec.bm} not rw-conflicting with {spec.a1} and the RC case fails"
            )

    # (6) not all of T_1, T_2, T_m at SSI.
    ssi = IsolationLevel.SSI
    if level1 is ssi and level2 is ssi and levelm is ssi:
        failures.append("(6) T1, T2 and Tm are all allocated SSI")

    # (7) SSI pair T_1, T_2: no wr-conflict from T_1 into T_2.
    if level1 is ssi and level2 is ssi:
        if t1.write_set & t2.read_set:
            failures.append("(7) an operation of T1 wr-conflicts with one of T2")

    # (8) SSI pair T_1, T_m: no rw-conflict from T_1 into T_m.
    if level1 is ssi and levelm is ssi:
        if t1.read_set & tm.write_set:
            failures.append("(8) an operation of T1 rw-conflicts with one of Tm")

    return failures


def is_valid_split_schedule(
    spec: SplitScheduleSpec, workload: Workload, allocation: Allocation
) -> bool:
    """Whether ``spec`` satisfies all conditions of Definition 3.1."""
    return not condition_failures(spec, workload, allocation)


def operation_order(spec: SplitScheduleSpec, workload: Workload) -> Tuple[Operation, ...]:
    """The operation order of the split schedule based on ``spec``.

    ``prefix_{b_1}(T_1) . T_2 ... T_m . postfix_{b_1}(T_1) . T_{m+1} ... T_n``
    with the remaining transactions appended in ascending id order.
    """
    t1 = workload[spec.split_tid]
    order: List[Operation] = list(t1.prefix(spec.b1))
    for tid in spec.middle_tids:
        order.extend(workload[tid].operations)
    order.extend(t1.postfix(spec.b1))
    mentioned = {spec.split_tid, *spec.middle_tids}
    for txn in workload:
        if txn.tid not in mentioned:
            order.extend(txn.operations)
    return tuple(order)


def materialize(
    spec: SplitScheduleSpec, workload: Workload, allocation: Allocation
) -> MVSchedule:
    """Build the concrete multiversion split schedule for a valid spec.

    The returned schedule uses the commit-order version order and the
    read-last-committed version function forced by the allocation.  By
    Theorem 3.2 it is allowed under the allocation and not conflict
    serializable whenever the spec satisfies Definition 3.1 (the test
    suite re-verifies both with the independent Definition 2.4 and
    serialization-graph machinery).

    Raises:
        ValueError: if the spec violates a condition of Definition 3.1.
    """
    failures = condition_failures(spec, workload, allocation)
    if failures:
        raise ValueError(
            "spec violates Definition 3.1: " + "; ".join(failures)
        )
    return canonical_schedule(workload, operation_order(spec, workload), allocation)
