"""Unit tests for repro.core.operations."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.core.operations import (
    OP0,
    Operation,
    OperationKind,
    commit,
    read,
    write,
)


class TestConstruction:
    def test_read_builder(self):
        op = read(3, "x")
        assert op.kind is OperationKind.READ
        assert op.transaction_id == 3
        assert op.obj == "x"

    def test_write_builder(self):
        op = write(2, "acct")
        assert op.is_write and not op.is_read and not op.is_commit

    def test_commit_builder(self):
        op = commit(7)
        assert op.is_commit
        assert op.obj is None

    def test_read_requires_object(self):
        with pytest.raises(ValueError):
            Operation(OperationKind.READ, 1)

    def test_write_requires_object(self):
        with pytest.raises(ValueError):
            Operation(OperationKind.WRITE, 1, None)

    def test_empty_object_rejected(self):
        with pytest.raises(ValueError):
            Operation(OperationKind.READ, 1, "")

    def test_commit_rejects_object(self):
        with pytest.raises(ValueError):
            Operation(OperationKind.COMMIT, 1, "x")

    def test_nonpositive_tid_rejected(self):
        with pytest.raises(ValueError):
            read(0, "x")
        with pytest.raises(ValueError):
            write(-1, "x")

    def test_op0_requires_tid_zero(self):
        with pytest.raises(ValueError):
            Operation(OperationKind.INITIAL, 1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown operation kind 'R'"):
            Operation("R", 1, "x")

    def test_keyword_construction(self):
        op = Operation(kind=OperationKind.WRITE, transaction_id=2, obj="y")
        assert op == write(2, "y")
        assert Operation(kind=OperationKind.COMMIT, transaction_id=2) == commit(2)


class TestOp0:
    def test_op0_is_initial(self):
        assert OP0.is_initial
        assert not OP0.is_read and not OP0.is_write and not OP0.is_commit

    def test_op0_string(self):
        assert str(OP0) == "op0"

    def test_op0_singleton_equality(self):
        assert OP0 == Operation(OperationKind.INITIAL, 0)


class TestValueSemantics:
    def test_equality(self):
        assert read(1, "x") == read(1, "x")
        assert read(1, "x") != read(2, "x")
        assert read(1, "x") != write(1, "x")
        assert read(1, "x") != read(1, "y")

    def test_hashable(self):
        ops = {read(1, "x"), write(1, "x"), commit(1), read(1, "x")}
        assert len(ops) == 3

    def test_str_matches_paper_notation(self):
        assert str(read(1, "t")) == "R1[t]"
        assert str(write(4, "t")) == "W4[t]"
        assert str(commit(2)) == "C2"

    def test_repr_roundtrip_info(self):
        assert "R1[x]" in repr(read(1, "x"))

    def test_equal_only_to_operations(self):
        assert read(1, "x") != (OperationKind.READ, 1, "x")
        assert commit(1) != (OperationKind.COMMIT, 1, None)
        assert read(1, "x") != "R1[x]"

    @pytest.mark.parametrize("field", ["kind", "transaction_id", "obj", "other"])
    def test_assignment_raises(self, field):
        op = read(1, "x")
        with pytest.raises(FrozenInstanceError):
            setattr(op, field, None)
        assert op == read(1, "x")

    @pytest.mark.parametrize("field", ["kind", "transaction_id", "obj"])
    def test_deletion_raises(self, field):
        op = write(2, "y")
        with pytest.raises(FrozenInstanceError):
            delattr(op, field)
        assert op.obj == "y"

    @pytest.mark.parametrize(
        "op", [read(1, "x"), write(7, "acct"), commit(3), OP0], ids=str
    )
    def test_pickle_and_copy_roundtrip(self, op):
        for clone in (
            pickle.loads(pickle.dumps(op)),
            copy.copy(op),
            copy.deepcopy(op),
        ):
            assert clone == op and hash(clone) == hash(op)
            assert clone.kind is op.kind and str(clone) == str(op)
