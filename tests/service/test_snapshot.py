"""Snapshot files: atomicity, versioning, corruption safety."""

import hashlib
import json

import pytest

from repro.core.incremental import AllocationManager
from repro.core.transactions import parse_transaction
from repro.service.snapshot import (
    SNAPSHOT_KIND,
    SNAPSHOT_SCHEMA,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)


@pytest.fixture
def state(tmp_path):
    manager = AllocationManager()
    manager.add(parse_transaction("R1[x] W1[y]"))
    manager.add(parse_transaction("R2[y] W2[x]"))
    return manager.save_state()


class TestRoundTrip:
    def test_write_read(self, tmp_path, state):
        path = tmp_path / "snap.json"
        size = write_snapshot(path, state)
        assert size == path.stat().st_size
        assert read_snapshot(path) == state

    def test_document_shape(self, tmp_path, state):
        path = tmp_path / "snap.json"
        write_snapshot(path, state)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["kind"] == SNAPSHOT_KIND
        assert document["schema"] == SNAPSHOT_SCHEMA
        assert document["state"] == state
        assert isinstance(document["sha256"], str)

    def test_overwrite_replaces(self, tmp_path, state):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"version": 1, "other": True})
        write_snapshot(path, state)
        assert read_snapshot(path) == state

    def test_file_is_the_compact_canonical_envelope(self, tmp_path, state):
        """One line: the envelope's canonical JSON, embedding the state's
        canonical text, whose sha256 it carries."""
        path = tmp_path / "snap.json"
        write_snapshot(path, state)
        text = path.read_text(encoding="utf-8")
        document = json.loads(text)
        assert text == json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        assert f'"state":{canonical}}}' in text
        assert document["sha256"] == hashlib.sha256(canonical.encode()).hexdigest()

    def test_no_temp_droppings(self, tmp_path, state):
        path = tmp_path / "snap.json"
        write_snapshot(path, state)
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]


    def test_directory_fsynced_after_replace(self, tmp_path, state, monkeypatch):
        """File fsync, then the rename, then an fsync of the directory."""
        import os
        import stat

        from repro.service import snapshot as snapshot_module

        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(f"fsync {kind}")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(snapshot_module.os, "fsync", fsync)
        monkeypatch.setattr(snapshot_module.os, "replace", replace)
        path = tmp_path / "snap.json"
        write_snapshot(path, state)
        assert events == ["fsync file", "replace", "fsync dir"]
        assert read_snapshot(path) == state


class TestCorruptionSafety:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot at"):
            read_snapshot(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("torn write{{{", encoding="utf-8")
        with pytest.raises(SnapshotError, match="unreadable"):
            read_snapshot(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SnapshotError, match="unreadable"):
            read_snapshot(path)

    def test_too_deeply_nested(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        with pytest.raises(SnapshotError, match="unreadable"):
            read_snapshot(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"kind": "something-else"}), encoding="utf-8")
        with pytest.raises(SnapshotError, match="is not a"):
            read_snapshot(path)

    def test_wrong_schema(self, tmp_path, state):
        path = tmp_path / "snap.json"
        write_snapshot(path, state)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["schema"] = 999
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(SnapshotError, match="schema"):
            read_snapshot(path)

    def test_checksum_mismatch(self, tmp_path, state):
        path = tmp_path / "snap.json"
        write_snapshot(path, state)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["state"]["workload"] = "T9: W9[q] C9"  # bit-flipped payload
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(path)

    def test_missing_state(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps({"kind": SNAPSHOT_KIND, "schema": SNAPSHOT_SCHEMA}),
            encoding="utf-8",
        )
        with pytest.raises(SnapshotError, match="no state payload"):
            read_snapshot(path)


def test_snapshot_feeds_manager_restore(tmp_path, state):
    """A written snapshot restores to a manager with identical allocation."""
    path = tmp_path / "snap.json"
    write_snapshot(path, state)
    manager = AllocationManager.load_state(read_snapshot(path))
    assert {tid: lvl.name for tid, lvl in manager.allocation.items()} == {
        1: "SSI",
        2: "SSI",
    }
