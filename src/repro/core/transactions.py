"""Transactions: finite sequences of reads and writes followed by a commit.

Section 2.1 of the paper models a transaction as a linear order
``(T, <=_T)`` over its operations.  We represent the linear order as a
tuple; positions give ``<_T`` directly.  As in the paper we assume at most
one read and at most one write per object per transaction (all results
carry over to the general case).

A small text DSL mirrors the paper's notation so that transactions can be
written down exactly as they appear in print::

    parse_transaction("R1[x] W1[y] C1")           # explicit id
    parse_transaction("R[x] W[y] C", tid=3)       # id supplied separately
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .operations import Operation, OperationKind, commit, read, write


_READ = OperationKind.READ
_WRITE = OperationKind.WRITE
_COMMIT = OperationKind.COMMIT


class TransactionError(ValueError):
    """Raised for malformed transactions."""


class Transaction:
    """An immutable transaction: reads/writes over objects plus a commit.

    Args:
        tid: unique positive transaction id.
        operations: the read/write operations in program order.  The
            terminating commit may be included as the final element or
            omitted (it is appended automatically).

    Raises:
        TransactionError: on duplicate reads/writes of an object, foreign
            operations, or a misplaced commit.
    """

    __slots__ = ("_tid", "_ops", "_positions", "_read_set", "_write_set")

    def __init__(self, tid: int, operations: Iterable[Operation]):
        ops = list(operations)
        if tid <= 0:
            raise TransactionError(f"transaction id must be positive, got {tid}")
        if ops and ops[-1].kind is _COMMIT:
            last = ops.pop()
            if last.transaction_id != tid:
                raise TransactionError(
                    f"commit of transaction {last.transaction_id} in transaction {tid}"
                )
        else:
            last = commit(tid)
        seen_reads: set = set()
        seen_writes: set = set()
        for op in ops:
            if op.transaction_id != tid:
                raise TransactionError(
                    f"operation {op} does not belong to transaction {tid}"
                )
            kind = op.kind
            if kind is _READ:
                target = seen_reads
            elif kind is _WRITE:
                target = seen_writes
            else:
                raise TransactionError(f"misplaced {op} inside transaction {tid}")
            if op.obj in target:
                raise TransactionError(
                    f"transaction {tid} has two {kind.name.lower()}s on {op.obj!r}"
                )
            target.add(op.obj)
        ops.append(last)
        self._tid = tid
        self._ops: Tuple[Operation, ...] = tuple(ops)
        self._positions: Dict[Operation, int] = dict(zip(self._ops, range(len(ops))))
        self._read_set = frozenset(seen_reads)
        self._write_set = frozenset(seen_writes)

    @property
    def tid(self) -> int:
        """The transaction id."""
        return self._tid

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """All operations in program order, commit included."""
        return self._ops

    @property
    def body(self) -> Tuple[Operation, ...]:
        """The read/write operations in program order (commit excluded)."""
        return self._ops[:-1]

    @property
    def commit_op(self) -> Operation:
        """The terminating commit operation ``C_i``."""
        return self._ops[-1]

    @property
    def first(self) -> Operation:
        """``first(T)``: the first operation of the transaction.

        For an empty transaction this is the commit itself.
        """
        return self._ops[0]

    @property
    def read_set(self) -> frozenset:
        """Objects read by this transaction."""
        return self._read_set

    @property
    def write_set(self) -> frozenset:
        """Objects written by this transaction."""
        return self._write_set

    def read_op(self, obj: str) -> Optional[Operation]:
        """The read on ``obj``, or ``None`` if the transaction does not read it."""
        op = read(self._tid, obj)
        return op if op in self._positions else None

    def write_op(self, obj: str) -> Optional[Operation]:
        """The write on ``obj``, or ``None`` if the transaction does not write it."""
        op = write(self._tid, obj)
        return op if op in self._positions else None

    def position(self, op: Operation) -> int:
        """The 0-based position of ``op`` in program order.

        Raises:
            KeyError: if the operation does not occur in this transaction.
        """
        return self._positions[op]

    def __contains__(self, op: Operation) -> bool:
        return op in self._positions

    def before(self, a: Operation, b: Operation) -> bool:
        """``a <_T b``: whether ``a`` strictly precedes ``b`` in program order."""
        return self._positions[a] < self._positions[b]

    def prefix(self, op: Operation) -> Tuple[Operation, ...]:
        """``prefix_op(T)``: operations up to and including ``op``."""
        return self._ops[: self._positions[op] + 1]

    def postfix(self, op: Operation) -> Tuple[Operation, ...]:
        """``postfix_op(T)``: operations strictly after ``op``."""
        return self._ops[self._positions[op] + 1 :]

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return self._tid == other._tid and self._ops == other._ops

    def __hash__(self) -> int:
        return hash((self._tid, self._ops))

    def __str__(self) -> str:
        return " ".join(str(op) for op in self._ops)

    def __repr__(self) -> str:
        return f"Transaction({self})"


_TOKEN = re.compile(
    r"""
    (?P<kind>[RWC])          # operation kind
    (?P<tid>\d+)?            # optional explicit transaction id
    (?:\[(?P<obj>[^\]\s]+)\])?   # object for reads/writes
    """,
    re.VERBOSE,
)


_KINDS = {"R": _READ, "W": _WRITE, "C": _COMMIT}


def _unparsable(token: str, schedule: bool) -> TransactionError:
    """The error for a token outside the grammar (in a schedule, also one
    without a subscript)."""
    if schedule:
        return TransactionError(
            f"cannot parse schedule token {token!r} (explicit ids required)"
        )
    return TransactionError(f"cannot parse operation token {token!r}")


def _parse_tokens(
    text: str, tid: Optional[int], schedule: bool
) -> Tuple[Operation, ...]:
    """The token → :class:`Operation` step both token parsers share.

    Each token is matched once.  A token without a subscript takes
    ``tid``; with ``tid`` given, every subscript must name it.  In
    ``schedule`` mode each token must carry its own subscript.  A
    non-positive id is a :class:`TransactionError`, like every other
    malformed token.
    """
    ops = []
    for token in text.split():
        match = _TOKEN.fullmatch(token)
        if match is None:
            raise _unparsable(token, schedule)
        letter, subscript, obj = match.groups()
        if subscript is None:
            if schedule:
                raise _unparsable(token, schedule)
            if tid is None:
                raise TransactionError(
                    f"token {token!r} has no transaction id and no tid= was given"
                )
            op_tid = tid
        else:
            op_tid = int(subscript)
            if tid is not None and op_tid != tid:
                raise TransactionError(
                    f"token {token!r} names transaction {op_tid}, expected {tid}"
                )
        kind = _KINDS[letter]
        if kind is _COMMIT:
            if obj is not None:
                raise TransactionError(f"commit token {token!r} must not name an object")
        elif obj is None:
            raise TransactionError(f"token {token!r} is missing its [object]")
        if op_tid <= 0:
            raise TransactionError(f"transaction id must be positive, got {op_tid}")
        ops.append(Operation(kind, op_tid, obj))
    return tuple(ops)


def parse_operations(text: str, tid: Optional[int] = None) -> Tuple[Operation, ...]:
    """Parse a whitespace-separated operation string in the paper's notation.

    Each token is ``R<i>[obj]``, ``W<i>[obj]`` or ``C<i>``; the transaction
    id subscript ``<i>`` may be omitted when ``tid`` is given.  Mixing an
    explicit id with a conflicting ``tid`` argument is an error, as is mixing
    ids of several transactions (use :func:`parse_schedule_operations` for
    interleaved sequences).
    """
    return _parse_tokens(text, tid, schedule=False)


def parse_schedule_operations(text: str) -> Tuple[Operation, ...]:
    """Parse an interleaved operation sequence with explicit transaction ids.

    Unlike :func:`parse_operations` this allows operations of several
    transactions to appear in one string, e.g. the operation order of a
    schedule: ``"R1[x] W2[x] C2 W1[y] C1"``.
    """
    return _parse_tokens(text, None, schedule=True)


def parse_transaction(text: str, tid: Optional[int] = None) -> Transaction:
    """Parse a transaction from the paper's notation.

    Examples:
        >>> parse_transaction("R1[x] W1[y] C1")
        Transaction(R1[x] W1[y] C1)
        >>> parse_transaction("R[x] W[y]", tid=2)
        Transaction(R2[x] W2[y] C2)
    """
    ops = parse_operations(text, tid=tid)
    if not ops:
        raise TransactionError("empty transaction text")
    inferred = tid if tid is not None else ops[0].transaction_id
    return Transaction(inferred, ops)


def transaction(tid: int, *specs: str) -> Transaction:
    """Convenience constructor from compact specs like ``"R[x]"``, ``"W[y]"``.

    Examples:
        >>> transaction(1, "R[x]", "W[y]")
        Transaction(R1[x] W1[y] C1)
    """
    return parse_transaction(" ".join(specs), tid=tid)


def sequence_operations(transactions: Sequence[Transaction]) -> Tuple[Operation, ...]:
    """Concatenate the operations of ``transactions`` serially, in order."""
    ops: list = []
    for txn in transactions:
        ops.extend(txn.operations)
    return tuple(ops)
