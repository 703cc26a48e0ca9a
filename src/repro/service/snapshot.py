"""Atomic, versioned, checksummed snapshot files for the daemon.

A snapshot wraps one
:meth:`~repro.core.incremental.AllocationManager.save_state` document in
a small on-disk envelope::

    {
      "kind": "repro-allocation-snapshot",
      "schema": 1,
      "sha256": "<hex digest of the canonical state payload>",
      "state": { ... manager state, version-stamped itself ... }
    }

Writes are atomic in the ``atomic_map_save`` idiom: the document is
written to a same-directory temporary file, fsynced, then ``os.replace``d
over the target, and the directory is fsynced so the rename itself is
durable — a crash mid-snapshot leaves the previous snapshot intact,
never a torn file.  Loads are corruption-safe: wrong kind, wrong
schema, bytes that are not UTF-8 JSON, or a checksum mismatch raise
:class:`SnapshotError` with a precise reason instead of resuming from
garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Union

__all__ = [
    "SNAPSHOT_KIND",
    "SNAPSHOT_SCHEMA",
    "SnapshotError",
    "read_snapshot",
    "write_snapshot",
]

#: The ``kind`` marker distinguishing service snapshots from other JSON.
SNAPSHOT_KIND = "repro-allocation-snapshot"

#: On-disk envelope schema version (independent of the manager state's
#: own ``version`` field, which the manager checks itself).
SNAPSHOT_SCHEMA = 1


class SnapshotError(ValueError):
    """A snapshot file that cannot be trusted (missing, torn, corrupt)."""


def _digest(state: Dict[str, Any]) -> str:
    """The canonical checksum of a state payload (sorted-key JSON)."""
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_snapshot(path: Union[str, Path], state: Dict[str, Any]) -> int:
    """Atomically write ``state`` to ``path``; returns the byte size.

    The temporary file lives in the target's directory (``os.replace``
    must not cross filesystems) and is fsynced before the rename, and
    the directory is fsynced after it, so after a crash or a power loss
    either the old or the new snapshot is fully present.
    """
    target = Path(path)
    document = {
        "kind": SNAPSHOT_KIND,
        "schema": SNAPSHOT_SCHEMA,
        "sha256": _digest(state),
        "state": state,
    }
    payload = json.dumps(document, indent=2, sort_keys=True) + "\n"
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        _fsync_directory(target.parent)
    finally:
        if tmp.exists():  # replace failed; never leave droppings
            tmp.unlink()
    return len(payload.encode("utf-8"))


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
    actual = _digest(state)
    if recorded != actual:
        raise SnapshotError(
            f"snapshot {target} fails its checksum"
            f" (recorded {str(recorded)[:12]}..., actual {actual[:12]}...)"
        )
    return state
