"""Atomic, versioned, checksummed snapshot files for the daemon.

A snapshot wraps one
:meth:`~repro.core.incremental.AllocationManager.save_state` document in
a small on-disk envelope, written as one compact line::

    {"kind":"repro-allocation-snapshot","schema":1,
     "sha256":"<hex digest of the canonical state text>",
     "state":{ ... manager state, version-stamped itself ... }}

The state is encoded once, as its canonical text (sorted keys, no
spaces): the file embeds that text and carries its sha256.

Writes are atomic in the ``atomic_map_save`` idiom: the document is
written to a same-directory temporary file, fsynced, then ``os.replace``d
over the target, and the directory is fsynced so the rename itself is
durable — a crash mid-snapshot leaves the previous snapshot intact,
never a torn file.  Loads are corruption-safe: wrong kind, wrong
schema, bytes that are not UTF-8 JSON, or a checksum mismatch raise
:class:`SnapshotError` with a precise reason instead of resuming from
garbage.

:class:`SnapshotWriter` runs those writes on one background thread, so
the daemon's auto-snapshots cost a request only the capture and the
encoding: at most one write is in flight, a newer capture replaces one
whose write has not started, and an older state never replaces a newer
one.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

__all__ = [
    "SNAPSHOT_KIND",
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "SnapshotWrite",
    "SnapshotWriter",
    "encode_snapshot",
    "read_snapshot",
    "write_encoded",
    "write_snapshot",
]

#: The ``kind`` marker distinguishing service snapshots from other JSON.
SNAPSHOT_KIND = "repro-allocation-snapshot"

#: On-disk envelope schema version (independent of the manager state's
#: own ``version`` field, which the manager checks itself).
SNAPSHOT_SCHEMA = 1


class SnapshotError(ValueError):
    """A snapshot file that cannot be trusted (missing, torn, corrupt)."""


def _canonical(state: Dict[str, Any]) -> str:
    """The canonical text of a state payload (sorted-key, compact JSON)."""
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encode_snapshot(state: Dict[str, Any]) -> bytes:
    """The snapshot file of ``state``: the envelope around its canonical
    text, itself the canonical JSON of the envelope, plus a newline.

    Examples:
        >>> encode_snapshot({"version": 1})[:46]
        b'{"kind":"repro-allocation-snapshot","schema":1'
        >>> encode_snapshot({"version": 1})[-17:]
        b'"state":{"version":1}}\n'
    """
    text = _canonical(state)
    return (
        f'{{"kind":"{SNAPSHOT_KIND}","schema":{SNAPSHOT_SCHEMA},'
        f'"sha256":"{_digest(text)}","state":{text}}}\n'
    ).encode("utf-8")


def write_snapshot(path: Union[str, Path], state: Dict[str, Any]) -> int:
    """Atomically write ``state`` to ``path``; returns the byte size."""
    return write_encoded(path, encode_snapshot(state))


def write_encoded(path: Union[str, Path], payload: bytes) -> int:
    """Atomically write an encoded snapshot to ``path``; returns its size.

    The temporary file lives in the target's directory (``os.replace``
    must not cross filesystems) and is fsynced before the rename, and
    the directory is fsynced after it, so after a crash or a power loss
    either the old or the new snapshot is fully present.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        _fsync_directory(target.parent)
    finally:
        if tmp.exists():  # replace failed; never leave droppings
            tmp.unlink()
    return len(payload)


def _fsync_directory(directory: Path) -> None:
    """Persist a rename inside ``directory`` (its entry table)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def read_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and verify a snapshot; returns the manager state payload.

    Raises:
        SnapshotError: when the file is missing, not UTF-8 JSON (JSON
            nested too deeply to decode included), not a snapshot, from
            an incompatible schema, or fails its checksum.
    """
    target = Path(path)
    if not target.exists():
        raise SnapshotError(f"no snapshot at {target}")
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SnapshotError(f"snapshot {target} is unreadable: {exc}") from None
    if not isinstance(document, dict) or document.get("kind") != SNAPSHOT_KIND:
        raise SnapshotError(f"{target} is not a {SNAPSHOT_KIND} file")
    if document.get("schema") != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"snapshot {target} has schema {document.get('schema')!r};"
            f" this build reads schema {SNAPSHOT_SCHEMA}"
        )
    state = document.get("state")
    if not isinstance(state, dict):
        raise SnapshotError(f"snapshot {target} carries no state payload")
    recorded = document.get("sha256")
    actual = _digest(_canonical(state))
    if recorded != actual:
        raise SnapshotError(
            f"snapshot {target} fails its checksum"
            f" (recorded {str(recorded)[:12]}..., actual {actual[:12]}...)"
        )
    return state


#: Name of :class:`SnapshotWriter`'s thread.
WRITER_THREAD = "repro-snapshot-writer"


@dataclass
class SnapshotWrite:
    """One encoded snapshot to write, and how its write went.

    The writer reads ``path`` and ``payload`` and fills in ``size``,
    ``error`` and ``seconds``.  ``mark``, ``auto`` and ``request_id``
    are the owner's bookkeeping: for
    :class:`~repro.service.core.ServiceCore`, the mutation count the
    state was captured at, whether ``--snapshot-every`` captured it, and
    the request that did.
    """

    path: str
    payload: bytes
    mark: int = 0
    auto: bool = False
    request_id: Optional[str] = None
    size: int = 0
    error: Optional[Exception] = None
    seconds: float = 0.0

    def run(self) -> "SnapshotWrite":
        """Write the file atomically; a failure is kept in ``error``."""
        start = time.perf_counter()
        try:
            self.size = write_encoded(self.path, self.payload)
        except Exception as exc:  # the owner reports it; a writer never dies
            self.error = exc
        self.seconds = time.perf_counter() - start
        return self

    @property
    def failure(self) -> Optional[str]:
        """Why the write failed, naming the snapshot path (None if it did not)."""
        if self.error is None:
            return None
        reason = getattr(self.error, "strerror", None) or self.error
        return f"cannot write snapshot {self.path}: {reason}"


class SnapshotWriter:
    """Writes snapshots in capture order, the automatic ones on one thread.

    :meth:`submit` hands a write to the background thread (started by
    the first one) and returns at once.  The hand-off holds one write:
    a newer one replaces a write that has not started, so at most one
    write is in flight and an older state never replaces a newer one.
    :meth:`write` writes on the caller's thread once every write handed
    over is done, and :meth:`drain` only finishes those.  Every finished
    write, wherever it ran, queues for :meth:`finished` in write order,
    and the thread calls ``settle`` after each of its writes.

    Callers serialize :meth:`submit`, :meth:`write` and :meth:`drain`
    (the service core calls them under its lock).  ``settle`` may take
    that lock: a drain writes a not-yet-started write itself, and the
    thread reports a write finished before it calls ``settle``, so a
    drain never waits for ``settle``.  After :meth:`close`,
    :meth:`submit` writes on the caller's thread.
    """

    def __init__(self, settle: Callable[[], None]):
        self._settle = settle
        self._cond = threading.Condition()
        self._pending: Optional[SnapshotWrite] = None
        self._busy = False
        self._finished: List[SnapshotWrite] = []
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    def submit(self, write: SnapshotWrite) -> None:
        """Hand ``write`` to the background thread; returns at once."""
        with self._cond:
            if not self._closed:
                self._pending = write
                if self._thread is None:
                    self._thread = threading.Thread(
                        target=self._run, name=WRITER_THREAD, daemon=True
                    )
                    self._thread.start()
                self._cond.notify_all()
                return
        self.write(write)
        self._settle()

    def write(self, write: SnapshotWrite) -> SnapshotWrite:
        """Drain, then run ``write`` on this thread; returns it."""
        self.drain()
        self._finish(write.run())
        return write

    def drain(self) -> None:
        """Return once every write handed over is done: wait for the one
        in flight, and run one that has not started on this thread."""
        with self._cond:
            pending, self._pending = self._pending, None
            while self._busy:
                self._cond.wait()
        if pending is not None:
            self._finish(pending.run())

    def finished(self) -> List[SnapshotWrite]:
        """The writes finished since the last call, in write order."""
        with self._cond:
            done, self._finished = self._finished, []
        return done

    def close(self) -> None:
        """Finish the write handed over and join the thread (idempotent)."""
        with self._cond:
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None:
            thread.join()

    def _finish(self, write: SnapshotWrite) -> None:
        with self._cond:
            self._finished.append(write)

    def _run(self) -> None:
        while True:
            with self._cond:
                while self._pending is None and not self._closed:
                    self._cond.wait()
                if self._pending is None:
                    return
                write, self._pending = self._pending, None
                self._busy = True
            write.run()
            with self._cond:
                self._finished.append(write)
                self._busy = False
                self._cond.notify_all()
            self._settle()
