"""Operations of the formal transaction model.

The paper (Section 2.1) fixes an infinite set of objects ``Obj`` and, for an
object ``t``, considers read operations ``R[t]``, write operations ``W[t]``
and a per-transaction commit operation ``C``.  A special operation ``op_0``
conceptually writes the initial versions of all objects and precedes every
schedule.

Objects are modelled as plain strings.  Operations are immutable value
objects: within one transaction there is at most one read and at most one
write per object (the paper's standing assumption), so the triple
``(kind, transaction_id, obj)`` identifies an operation uniquely and makes
operations safely hashable across schedules.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError
from typing import Optional, Tuple


class OperationKind(enum.Enum):
    """The kind of an operation in the formal model."""

    READ = "R"
    WRITE = "W"
    COMMIT = "C"
    #: The special operation ``op_0`` writing all initial versions.
    INITIAL = "op0"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OperationKind.{self.name}"


_READ = OperationKind.READ
_WRITE = OperationKind.WRITE
_COMMIT = OperationKind.COMMIT
_INITIAL = OperationKind.INITIAL


class Operation:
    """A single read, write or commit operation of a transaction.

    An immutable, hashable value: equal operations (same kind, transaction
    id and object) hash equal, and only another :class:`Operation` compares
    equal.  Workload parsing builds one per token and every transaction
    indexes its operations by hash, so the constructor validates once,
    stores the three fields in slots and computes the hash once.

    Attributes:
        kind: read, write, commit or the special initial operation.
        transaction_id: id of the owning transaction (``0`` for ``op_0``;
            real transactions use positive ids).
        obj: the object read or written; ``None`` for commits and ``op_0``.

    Raises:
        ValueError: for an unknown kind, a read or write without an object,
            a commit or ``op_0`` with one, or an id that does not fit the
            kind.
    """

    __slots__ = ("kind", "transaction_id", "obj", "_hash")
    __match_args__ = ("kind", "transaction_id", "obj")

    kind: OperationKind
    transaction_id: int
    obj: Optional[str]

    def __init__(
        self, kind: OperationKind, transaction_id: int, obj: Optional[str] = None
    ) -> None:
        if kind is _READ or kind is _WRITE:
            if not obj:
                raise ValueError(f"{kind.name} operation requires an object")
        elif kind is _COMMIT or kind is _INITIAL:
            if obj is not None:
                raise ValueError(f"{kind.name} operation must not name an object")
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        if kind is _INITIAL:
            if transaction_id != 0:
                raise ValueError("op_0 must use transaction id 0")
        elif transaction_id <= 0:
            raise ValueError("transactions must use positive integer ids")
        _set_kind(self, kind)
        _set_transaction_id(self, transaction_id)
        _set_obj(self, obj)
        # The kind's value, not the member: Enum.__hash__ is a Python call.
        _set_hash(self, hash((kind._value_, transaction_id, obj)))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> Tuple[type, Tuple[OperationKind, int, Optional[str]]]:
        return (self.__class__, (self.kind, self.transaction_id, self.obj))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.kind is other.kind
            and self.transaction_id == other.transaction_id
            and self.obj == other.obj
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_read(self) -> bool:
        """Whether this is a read operation ``R[t]``."""
        return self.kind is _READ

    @property
    def is_write(self) -> bool:
        """Whether this is a write operation ``W[t]`` (``op_0`` excluded)."""
        return self.kind is _WRITE

    @property
    def is_commit(self) -> bool:
        """Whether this is a commit operation ``C``."""
        return self.kind is _COMMIT

    @property
    def is_initial(self) -> bool:
        """Whether this is the special initial operation ``op_0``."""
        return self.kind is _INITIAL

    def __str__(self) -> str:
        kind = self.kind
        if kind is _INITIAL:
            return "op0"
        if kind is _COMMIT:
            return f"C{self.transaction_id}"
        return f"{kind._value_}{self.transaction_id}[{self.obj}]"

    def __repr__(self) -> str:
        return f"Operation({self})"


# The slot descriptors' setters: the constructor fills the fields through
# them, past the frozen ``__setattr__``.
_set_kind = vars(Operation)["kind"].__set__
_set_transaction_id = vars(Operation)["transaction_id"].__set__
_set_obj = vars(Operation)["obj"].__set__
_set_hash = vars(Operation)["_hash"].__set__

#: The unique initial operation ``op_0`` of every schedule.
OP0 = Operation(OperationKind.INITIAL, 0)


def read(transaction_id: int, obj: str) -> Operation:
    """Build the read operation ``R_i[t]``."""
    return Operation(OperationKind.READ, transaction_id, obj)


def write(transaction_id: int, obj: str) -> Operation:
    """Build the write operation ``W_i[t]``."""
    return Operation(OperationKind.WRITE, transaction_id, obj)


def commit(transaction_id: int) -> Operation:
    """Build the commit operation ``C_i``."""
    return Operation(OperationKind.COMMIT, transaction_id)
