"""Version-chain storage for the MVCC engine.

Each object carries a chain of committed versions ordered by commit
sequence number; sequence ``0`` is the initial version written by the
conceptual ``op_0``.  Uncommitted writes live in per-transaction write
buffers (see :mod:`repro.mvcc.engine`), never in the store — the store
only ever serves committed data, mirroring the paper's assumption that
only committed versions are readable.

Snapshot reads bisect a parallel commit-sequence index, so a lookup is
``O(log chain)`` even on hot objects with very long histories — the
property the discrete-event simulator leans on to push millions of
operations.  :meth:`VersionedStore.prune` additionally truncates history
no active snapshot can see (the engine's ``compact()`` drives it), so
long simulations run in bounded memory.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import FrozenInstanceError
from typing import Dict, List, Optional, Tuple


class Version:
    """One committed version of an object: an immutable, hashable value.

    Versions equal each other when their three fields do.  The engine
    installs one per committed write, so it is a slotted class whose
    constructor fills the three slots directly.

    Attributes:
        writer_tid: transaction that wrote it (``0`` for the initial version).
        commit_seq: commit sequence number at which it was installed
            (``0`` for the initial version).
        value: the stored value (opaque to the engine).
    """

    __slots__ = ("writer_tid", "commit_seq", "value")
    __match_args__ = ("writer_tid", "commit_seq", "value")

    writer_tid: int
    commit_seq: int
    value: object

    def __init__(self, writer_tid: int, commit_seq: int, value: object = None) -> None:
        _set_writer_tid(self, writer_tid)
        _set_commit_seq(self, commit_seq)
        _set_value(self, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.writer_tid == other.writer_tid
            and self.commit_seq == other.commit_seq
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.writer_tid, self.commit_seq, self.value))

    def __reduce__(self) -> Tuple[type, Tuple[int, int, object]]:
        return (self.__class__, (self.writer_tid, self.commit_seq, self.value))

    def __repr__(self) -> str:
        return (
            f"Version(writer_tid={self.writer_tid!r},"
            f" commit_seq={self.commit_seq!r}, value={self.value!r})"
        )

    @property
    def is_initial(self) -> bool:
        """Whether this is the initial (``op_0``) version."""
        return self.commit_seq == 0


# The slot descriptors' setters: the constructor fills the fields through
# them, past the frozen ``__setattr__``.
_set_writer_tid = vars(Version)["writer_tid"].__set__
_set_commit_seq = vars(Version)["commit_seq"].__set__
_set_value = vars(Version)["value"].__set__

_INITIAL = Version(0, 0)


class VersionedStore:
    """Committed version chains for all objects, in commit order."""

    def __init__(self) -> None:
        self._chains: Dict[str, List[Version]] = {}
        #: Parallel per-object list of commit seqs, kept sorted for bisect.
        self._seqs: Dict[str, List[int]] = {}

    def chain(self, obj: str) -> List[Version]:
        """The committed versions of ``obj``, oldest first (initial included).

        After :meth:`prune` the oldest retained committed version stands
        in for everything truncated before it; the conceptual initial
        version is still reported first.
        """
        return [_INITIAL] + self._chains.get(obj, [])

    def install(self, obj: str, writer_tid: int, commit_seq: int, value: object) -> None:
        """Install a committed version of ``obj``.

        Versions must be installed in increasing commit order (the engine
        assigns monotone commit sequence numbers).
        """
        seqs = self._seqs.get(obj)
        if seqs is None:
            self._chains[obj] = [Version(writer_tid, commit_seq, value)]
            self._seqs[obj] = [commit_seq]
            return
        if seqs[-1] >= commit_seq:
            raise ValueError(
                f"version of {obj!r} installed out of commit order "
                f"({commit_seq} after {seqs[-1]})"
            )
        self._chains[obj].append(Version(writer_tid, commit_seq, value))
        seqs.append(commit_seq)

    def latest_committed(self, obj: str, as_of_seq: Optional[int] = None) -> Version:
        """The most recent version of ``obj`` visible at ``as_of_seq``.

        ``as_of_seq=None`` means "now" (the newest committed version);
        otherwise versions with ``commit_seq > as_of_seq`` are invisible.
        Falls back to the initial version when nothing qualifies.
        """
        chain = self._chains.get(obj)
        if not chain:
            return _INITIAL
        if as_of_seq is None:
            return chain[-1]
        seqs = self._seqs[obj]
        if seqs[-1] <= as_of_seq:  # the newest version is visible: no search
            return chain[-1]
        index = bisect_right(seqs, as_of_seq) - 1
        if index < 0:
            return _INITIAL
        return chain[index]

    def has_newer_than(self, obj: str, seq: int) -> bool:
        """Whether a version of ``obj`` committed after sequence ``seq``."""
        seqs = self._seqs.get(obj)
        return seqs is not None and seqs[-1] > seq

    def prune(self, min_seq: int) -> int:
        """Drop history invisible to every snapshot at or after ``min_seq``.

        For each chain, versions strictly older than the newest version
        with ``commit_seq <= min_seq`` are discarded — any read with
        ``as_of_seq >= min_seq`` resolves to that newest version or a
        later one, so the truncated prefix is unreachable.  Returns the
        number of versions discarded.
        """
        dropped = 0
        for obj, seqs in self._seqs.items():
            cut = bisect_right(seqs, min_seq) - 1
            if cut > 0:
                del self._chains[obj][:cut]
                del seqs[:cut]
                dropped += cut
        return dropped

    def version_count(self) -> int:
        """Committed (non-initial) versions currently retained."""
        return sum(len(chain) for chain in self._chains.values())

    def objects(self) -> List[str]:
        """All objects with at least one non-initial committed version."""
        return sorted(self._chains)
