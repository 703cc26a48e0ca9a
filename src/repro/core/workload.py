"""Workloads: finite sets of transactions with unique ids.

The robustness and allocation problems are stated over a *set* of
transactions ``T`` (Section 2.4).  :class:`Workload` is that set, indexed
by transaction id, with a text format for files and tests::

    T1: R[x] W[y]
    T2: R[y] W[x]

Lines starting with ``#`` are comments; the terminating commit of each
transaction is implicit (but may be written).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .operations import Operation
from .transactions import Transaction, TransactionError, parse_transaction


class WorkloadError(ValueError):
    """Raised for malformed workloads (duplicate or unknown ids, ...)."""


class Workload:
    """An immutable set of transactions indexed by transaction id."""

    __slots__ = ("_by_tid",)

    def __init__(self, transactions: Iterable[Transaction]):
        by_tid: Dict[int, Transaction] = {}
        for txn in transactions:
            if txn.tid in by_tid:
                raise WorkloadError(f"duplicate transaction id {txn.tid}")
            by_tid[txn.tid] = txn
        self._by_tid: Dict[int, Transaction] = dict(sorted(by_tid.items()))

    @property
    def tids(self) -> Tuple[int, ...]:
        """All transaction ids in ascending order."""
        return tuple(self._by_tid)

    @property
    def transactions(self) -> Tuple[Transaction, ...]:
        """All transactions in ascending id order."""
        return tuple(self._by_tid.values())

    def __getitem__(self, tid: int) -> Transaction:
        try:
            return self._by_tid[tid]
        except KeyError:
            raise WorkloadError(f"no transaction with id {tid}") from None

    def __contains__(self, tid: int) -> bool:
        return tid in self._by_tid

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._by_tid.values())

    def __len__(self) -> int:
        return len(self._by_tid)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Workload):
            return NotImplemented
        return self._by_tid == other._by_tid

    def __hash__(self) -> int:
        return hash(tuple(self._by_tid.values()))

    def transaction_of(self, op: Operation) -> Transaction:
        """The transaction owning operation ``op``.

        Raises:
            WorkloadError: if the operation belongs to no transaction in the
                workload (including ``op_0``).
        """
        txn = self._by_tid.get(op.transaction_id)
        if txn is None or op not in txn:
            raise WorkloadError(f"operation {op} does not occur in this workload")
        return txn

    def operations(self) -> Tuple[Operation, ...]:
        """All operations of all transactions (commits included)."""
        ops: List[Operation] = []
        for txn in self:
            ops.extend(txn.operations)
        return tuple(ops)

    def operation_count(self) -> int:
        """Total number of operations ``k`` (commits included)."""
        return sum(len(txn) for txn in self)

    def objects(self) -> frozenset:
        """All objects read or written by some transaction."""
        objs = set()
        for txn in self:
            objs |= txn.read_set | txn.write_set
        return frozenset(objs)

    def without(self, *tids: int) -> "Workload":
        """A copy of the workload with the given transactions removed."""
        missing = [tid for tid in tids if tid not in self._by_tid]
        if missing:
            raise WorkloadError(f"no transaction with id {missing[0]}")
        drop = set(tids)
        return Workload(t for t in self if t.tid not in drop)

    def restricted_to(self, tids: Iterable[int]) -> "Workload":
        """The sub-workload containing only the given transaction ids."""
        keep = set(tids)
        return Workload(self._by_tid[tid] for tid in keep)

    def __str__(self) -> str:
        return "\n".join(f"T{t.tid}: {t}" for t in self)

    def __repr__(self) -> str:
        return f"Workload({list(self._by_tid.values())!r})"


def workload(*texts: str) -> Workload:
    """Build a workload from one transaction string per argument.

    Transaction ids are taken from the operation subscripts when present and
    assigned ``1, 2, ...`` positionally otherwise.

    Examples:
        >>> workload("R1[x] W1[y]", "R2[y] W2[x]").tids
        (1, 2)
        >>> workload("R[x] W[y]", "R[y] W[x]").tids
        (1, 2)
    """
    txns = []
    for position, text in enumerate(texts, start=1):
        stripped = text.strip()
        try:
            txns.append(parse_transaction(stripped))
        except TransactionError:
            # No explicit subscripts: assign the positional id.
            txns.append(parse_transaction(stripped, tid=position))
    return Workload(txns)


def parse_workload(text: str) -> Workload:
    """Parse the multi-line workload format.

    Each non-empty, non-comment line reads ``T<i>: <operations>`` (the
    ``T<i>:`` prefix is optional when operation subscripts carry the id).
    """
    txns: List[Transaction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tid: Optional[int] = None
        body = line
        if ":" in line:
            head, _, body = line.partition(":")
            head = head.strip()
            if not head.lstrip("Tt").isdecimal():
                raise WorkloadError(f"line {lineno}: bad transaction header {head!r}")
            tid = int(head.lstrip("Tt"))
        try:
            txns.append(parse_transaction(body.strip(), tid=tid))
        except TransactionError as exc:
            raise WorkloadError(f"line {lineno}: {exc}") from exc
    return Workload(txns)
