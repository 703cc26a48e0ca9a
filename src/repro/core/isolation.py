"""Isolation levels and allocations (Section 2.3).

The paper considers the multiversion isolation levels available in
PostgreSQL — read committed (RC), snapshot isolation (SI) and serializable
snapshot isolation (SSI) — and, for Section 5, the Oracle subset {RC, SI}.

Levels carry the total *preference* order RC < SI < SSI used by the
allocation problem (Section 4).  As footnote 3 of the paper stresses, this
order reflects preference only, not containment of allowed schedules.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, KeysView, Mapping, Tuple, Union

from .workload import Workload, WorkloadError


class IsolationLevel(enum.Enum):
    """An isolation level, ordered by allocation preference RC < SI < SSI.

    Each member carries its preference ``rank`` (0 for RC, 1 for SI, 2
    for SSI) as a plain attribute, so a comparison is one method call on
    two ints, and hashing is identity hashing (members are singletons).
    Levels equal only themselves, never an int or a string, and ordering
    a level against a non-level raises :class:`TypeError`.
    """

    RC = "read committed"
    SI = "snapshot isolation"
    SSI = "serializable snapshot isolation"

    #: Preference rank: 0 for RC, 1 for SI, 2 for SSI (set per member below).
    rank: int

    # Members are singletons (pickle and copy return the member itself),
    # so identity hashing is safe; Enum's default hashes the name in Python.
    __hash__ = object.__hash__

    def __lt__(self, other: "IsolationLevel") -> bool:
        if not isinstance(other, IsolationLevel):
            return NotImplemented
        return self.rank < other.rank

    def __le__(self, other: "IsolationLevel") -> bool:
        if not isinstance(other, IsolationLevel):
            return NotImplemented
        return self.rank <= other.rank

    def __gt__(self, other: "IsolationLevel") -> bool:
        if not isinstance(other, IsolationLevel):
            return NotImplemented
        return self.rank > other.rank

    def __ge__(self, other: "IsolationLevel") -> bool:
        if not isinstance(other, IsolationLevel):
            return NotImplemented
        return self.rank >= other.rank

    def __str__(self) -> str:
        return self._name_

    @classmethod
    def parse(cls, text: Union[str, "IsolationLevel"]) -> "IsolationLevel":
        """Parse ``"RC"``, ``"SI"``, ``"SSI"`` or a spelled-out level name.

        Case is ignored, ``-`` and ``_`` stand for spaces and outer
        whitespace is stripped; anything else (a non-string included)
        raises :class:`ValueError`.
        """
        if isinstance(text, IsolationLevel):
            return text
        if isinstance(text, str):
            level = _BY_SPELLING.get(
                text.strip().upper().replace("-", " ").replace("_", " ")
            )
            if level is not None:
                return level
        raise ValueError(f"unknown isolation level {text!r}")


for _rank, _level in enumerate(IsolationLevel):  # definition order is preference
    _level.rank = _rank
del _rank, _level

#: Every normalized spelling :meth:`IsolationLevel.parse` accepts.
_BY_SPELLING: Dict[str, IsolationLevel] = {
    spelling: level
    for level in IsolationLevel
    for spelling in (level.name, level.value.upper())
}

#: The PostgreSQL class of isolation levels studied in Sections 3 and 4.
POSTGRES_LEVELS: Tuple[IsolationLevel, ...] = (
    IsolationLevel.RC,
    IsolationLevel.SI,
    IsolationLevel.SSI,
)

#: The Oracle class of isolation levels studied in Section 5.
ORACLE_LEVELS: Tuple[IsolationLevel, ...] = (IsolationLevel.RC, IsolationLevel.SI)


class Allocation:
    """An immutable mapping from transaction id to isolation level.

    Allocations are comparable under the pointwise order of Section 4:
    ``A <= A'`` iff ``A(T) <= A'(T)`` for every transaction, and
    ``A < A'`` additionally requires strict inequality somewhere.
    """

    __slots__ = ("_levels",)

    def __init__(self, levels: Mapping[int, Union[str, IsolationLevel]]):
        self._levels: Dict[int, IsolationLevel] = {
            tid: level if level.__class__ is IsolationLevel else IsolationLevel.parse(level)
            for tid, level in sorted(levels.items())
        }

    @classmethod
    def uniform(
        cls, workload: Workload, level: Union[str, IsolationLevel]
    ) -> "Allocation":
        """The allocation mapping every transaction of ``workload`` to ``level``."""
        if level.__class__ is not IsolationLevel:
            level = IsolationLevel.parse(level)
        return cls({tid: level for tid in workload.tids})

    @classmethod
    def rc(cls, workload: Workload) -> "Allocation":
        """``A_RC``: every transaction at read committed."""
        return cls.uniform(workload, IsolationLevel.RC)

    @classmethod
    def si(cls, workload: Workload) -> "Allocation":
        """``A_SI``: every transaction at snapshot isolation."""
        return cls.uniform(workload, IsolationLevel.SI)

    @classmethod
    def ssi(cls, workload: Workload) -> "Allocation":
        """``A_SSI``: every transaction at serializable snapshot isolation."""
        return cls.uniform(workload, IsolationLevel.SSI)

    @property
    def tids(self) -> Tuple[int, ...]:
        """The allocated transaction ids in ascending order."""
        return tuple(self._levels)

    def __getitem__(self, tid: int) -> IsolationLevel:
        try:
            return self._levels[tid]
        except KeyError:
            raise WorkloadError(f"no isolation level allocated to transaction {tid}") from None

    def __contains__(self, tid: int) -> bool:
        return tid in self._levels

    def __iter__(self) -> Iterator[int]:
        return iter(self._levels)

    def __len__(self) -> int:
        return len(self._levels)

    def keys(self) -> KeysView[int]:
        """The allocated transaction ids, ascending, as a set-like view."""
        return self._levels.keys()

    def items(self) -> Iterable[Tuple[int, IsolationLevel]]:
        """``(tid, level)`` pairs in ascending tid order."""
        return self._levels.items()

    def with_level(
        self, tid: int, level: Union[str, IsolationLevel]
    ) -> "Allocation":
        """``A[T -> I]``: this allocation with ``tid`` reassigned (one level parsed)."""
        if tid not in self._levels:
            raise WorkloadError(f"no isolation level allocated to transaction {tid}")
        if level.__class__ is not IsolationLevel:
            level = IsolationLevel.parse(level)
        updated = dict(self._levels)
        updated[tid] = level
        candidate = object.__new__(Allocation)
        candidate._levels = updated
        return candidate

    def tids_at(self, level: Union[str, IsolationLevel]) -> Tuple[int, ...]:
        """The transactions allocated exactly ``level``."""
        if level.__class__ is not IsolationLevel:
            level = IsolationLevel.parse(level)
        return tuple(tid for tid, lvl in self._levels.items() if lvl is level)

    def covers(self, workload: Workload) -> bool:
        """Whether every transaction of ``workload`` is allocated a level."""
        return set(workload.tids) <= set(self._levels)

    def uses_only(self, levels: Iterable[IsolationLevel]) -> bool:
        """Whether the allocation maps into the given class of levels."""
        allowed = set(levels)
        return all(level in allowed for level in self._levels.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return self._levels == other._levels

    def __hash__(self) -> int:
        return hash(tuple(self._levels.items()))

    def __le__(self, other: "Allocation") -> bool:
        """Pointwise order over the same transaction set (Section 4)."""
        if set(self._levels) != set(other._levels):
            raise WorkloadError("allocations over different transaction sets")
        return all(self._levels[tid] <= other._levels[tid] for tid in self._levels)

    def __lt__(self, other: "Allocation") -> bool:
        return self <= other and self._levels != other._levels

    def __str__(self) -> str:
        return ", ".join(f"T{tid}:{level}" for tid, level in self._levels.items())

    def __repr__(self) -> str:
        return f"Allocation({{{self}}})"


def allocation(**levels: Union[str, IsolationLevel]) -> Allocation:
    """Keyword-style constructor: ``allocation(T1="RC", T2="SSI")``."""
    parsed = {}
    for key, level in levels.items():
        if not key.lstrip("Tt").isdecimal():
            raise WorkloadError(f"bad transaction key {key!r}; use T<i>")
        parsed[int(key.lstrip("Tt"))] = level
    return Allocation(parsed)
