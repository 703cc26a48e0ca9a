"""Unit tests for repro.core.transactions."""

import pytest
from hypothesis import given

import strategies as sts
from repro.core.operations import OP0, commit, read, write
from repro.core.transactions import (
    Transaction,
    TransactionError,
    parse_operations,
    parse_schedule_operations,
    parse_transaction,
    sequence_operations,
    transaction,
)
from repro.core.workload import WorkloadError, parse_workload


class TestConstruction:
    def test_commit_appended(self):
        txn = Transaction(1, [read(1, "x")])
        assert txn.operations == (read(1, "x"), commit(1))

    def test_explicit_commit_accepted(self):
        txn = Transaction(1, [read(1, "x"), commit(1)])
        assert txn.commit_op == commit(1)
        assert len(txn) == 2

    def test_foreign_commit_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(1, [read(1, "x"), commit(2)])

    def test_foreign_operation_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(1, [read(2, "x")])

    def test_duplicate_read_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(1, [read(1, "x"), read(1, "x")])

    def test_duplicate_write_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(1, [write(1, "x"), write(1, "x")])

    def test_read_and_write_same_object_allowed(self):
        txn = Transaction(1, [read(1, "x"), write(1, "x")])
        assert txn.read_set == {"x"} and txn.write_set == {"x"}

    def test_midstream_commit_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(1, [commit(1), read(1, "x")])

    def test_nonpositive_tid_rejected(self):
        with pytest.raises(TransactionError):
            Transaction(0, [])

    def test_empty_transaction_is_just_commit(self):
        txn = Transaction(5, [])
        assert txn.operations == (commit(5),)
        assert txn.first == commit(5)


class TestAccessors:
    def setup_method(self):
        self.txn = parse_transaction("R1[x] W1[y] R1[z] W1[z] C1")

    def test_first(self):
        assert self.txn.first == read(1, "x")

    def test_body_excludes_commit(self):
        assert all(not op.is_commit for op in self.txn.body)
        assert len(self.txn.body) == 4

    def test_read_write_sets(self):
        assert self.txn.read_set == {"x", "z"}
        assert self.txn.write_set == {"y", "z"}

    def test_read_op_lookup(self):
        assert self.txn.read_op("x") == read(1, "x")
        assert self.txn.read_op("y") is None

    def test_write_op_lookup(self):
        assert self.txn.write_op("y") == write(1, "y")
        assert self.txn.write_op("x") is None

    def test_before(self):
        assert self.txn.before(read(1, "x"), write(1, "y"))
        assert not self.txn.before(write(1, "y"), read(1, "x"))

    def test_position(self):
        assert self.txn.position(read(1, "x")) == 0
        assert self.txn.position(self.txn.commit_op) == 4

    def test_position_foreign_raises(self):
        with pytest.raises(KeyError):
            self.txn.position(read(2, "x"))

    def test_prefix_includes_op(self):
        prefix = self.txn.prefix(write(1, "y"))
        assert prefix == (read(1, "x"), write(1, "y"))

    def test_postfix_excludes_op(self):
        postfix = self.txn.postfix(write(1, "y"))
        assert postfix == (read(1, "z"), write(1, "z"), commit(1))

    def test_prefix_postfix_partition(self):
        for op in self.txn:
            assert self.txn.prefix(op) + self.txn.postfix(op) == self.txn.operations

    def test_contains(self):
        assert read(1, "x") in self.txn
        assert read(1, "q") not in self.txn

    def test_equality_and_hash(self):
        other = parse_transaction("R1[x] W1[y] R1[z] W1[z]")
        assert other == self.txn
        assert hash(other) == hash(self.txn)


class TestParsing:
    def test_parse_with_explicit_ids(self):
        txn = parse_transaction("R2[a] W2[b] C2")
        assert txn.tid == 2

    def test_parse_with_tid_argument(self):
        txn = parse_transaction("R[a] W[b]", tid=9)
        assert txn.tid == 9
        assert txn.read_set == {"a"}

    def test_parse_conflicting_tid_rejected(self):
        with pytest.raises(TransactionError):
            parse_transaction("R2[a]", tid=3)

    def test_parse_missing_tid_rejected(self):
        with pytest.raises(TransactionError):
            parse_transaction("R[a]")

    def test_parse_missing_object_rejected(self):
        with pytest.raises(TransactionError):
            parse_operations("R1")

    def test_parse_garbage_rejected(self):
        with pytest.raises(TransactionError):
            parse_operations("X1[a]")

    def test_parse_commit_with_object_rejected(self):
        with pytest.raises(TransactionError):
            parse_operations("C1[a]")

    def test_parse_empty_rejected(self):
        with pytest.raises(TransactionError):
            parse_transaction("   ")

    def test_transaction_helper(self):
        txn = transaction(3, "R[x]", "W[y]")
        assert str(txn) == "R3[x] W3[y] C3"

    def test_parse_schedule_operations(self):
        ops = parse_schedule_operations("R1[x] W2[x] C2 C1")
        assert ops == (read(1, "x"), write(2, "x"), commit(2), commit(1))

    def test_parse_schedule_requires_ids(self):
        with pytest.raises(TransactionError):
            parse_schedule_operations("R[x]")

    def test_parse_schedule_commit_with_object_rejected(self):
        """Both token parsers share one token step, and with it this check."""
        with pytest.raises(TransactionError, match="must not name an object"):
            parse_schedule_operations("R1[x] C1[x]")

    def test_str_roundtrip(self):
        text = "R1[x] W1[y] C1"
        assert str(parse_transaction(text)) == text

    def test_written_commit_is_kept(self):
        ops = parse_operations("R4[x] C4")
        txn = Transaction(4, ops)
        assert txn.commit_op is ops[-1]

    @pytest.mark.parametrize(
        "parse, bad_id",
        [
            (lambda: parse_operations("R0[x]"), 0),
            (lambda: parse_operations("R[x] W[y]", tid=0), 0),
            (lambda: parse_operations("C", tid=0), 0),
            (lambda: parse_transaction("R[x]", tid=-3), -3),
            (lambda: parse_transaction("R0[x] W0[y]"), 0),
            (lambda: parse_schedule_operations("R1[x] W0[x] C1"), 0),
            (lambda: parse_schedule_operations("C0"), 0),
        ],
        ids=[
            "subscript",
            "tid-argument",
            "commit",
            "negative-tid-argument",
            "transaction",
            "schedule",
            "schedule-commit",
        ],
    )
    def test_nonpositive_id_is_a_transaction_error(self, parse, bad_id):
        with pytest.raises(TransactionError) as excinfo:
            parse()
        assert str(excinfo.value) == f"transaction id must be positive, got {bad_id}"


#: Every parser and constructor error: where it is raised, its exception
#: type and its exact message.  Only the ``nonpositive`` rows differ from
#: the behaviour before the shared token step, which let the bare
#: ``ValueError`` of the ``Operation`` constructor escape.
ERROR_TABLE = [
    ("unknown-token", lambda: parse_workload("T1: R[x] X[y]"),
     WorkloadError, "line 1: cannot parse operation token 'X[y]'"),
    ("bad-header", lambda: parse_workload("T1: R[x]\nQ1: R[y]"),
     WorkloadError, "line 2: bad transaction header 'Q1'"),
    ("read-id-mismatch", lambda: parse_workload("T1: R2[x]"),
     WorkloadError, "line 1: token 'R2[x]' names transaction 2, expected 1"),
    ("commit-id-mismatch", lambda: parse_workload("T1: R[x] C2"),
     WorkloadError, "line 1: token 'C2' names transaction 2, expected 1"),
    ("duplicate-read", lambda: parse_workload("T1: R[x] W[y] R[x]"),
     WorkloadError, "line 1: transaction 1 has two reads on 'x'"),
    ("duplicate-write", lambda: parse_workload("# c\nT3: W[x] R[x] W[x]"),
     WorkloadError, "line 2: transaction 3 has two writes on 'x'"),
    ("misplaced-commit", lambda: parse_workload("T1: R[x] C1 W[y]"),
     WorkloadError, "line 1: misplaced C1 inside transaction 1"),
    ("commit-with-object", lambda: parse_workload("T1: R[x] C[x]"),
     WorkloadError, "line 1: commit token 'C[x]' must not name an object"),
    ("missing-object", lambda: parse_workload("T1: R"),
     WorkloadError, "line 1: token 'R' is missing its [object]"),
    ("no-id", lambda: parse_workload("R[x] W[y]"),
     WorkloadError, "line 1: token 'R[x]' has no transaction id and no tid= was given"),
    ("empty-body", lambda: parse_workload("T1:"),
     WorkloadError, "line 1: empty transaction text"),
    ("empty-text", lambda: parse_transaction("  "),
     TransactionError, "empty transaction text"),
    ("schedule-no-id", lambda: parse_schedule_operations("R1[x] W[y]"),
     TransactionError, "cannot parse schedule token 'W[y]' (explicit ids required)"),
    ("schedule-unknown-token", lambda: parse_schedule_operations("R1[x] X1[y]"),
     TransactionError, "cannot parse schedule token 'X1[y]' (explicit ids required)"),
    ("schedule-missing-object", lambda: parse_schedule_operations("W2"),
     TransactionError, "token 'W2' is missing its [object]"),
    ("foreign-operation", lambda: Transaction(1, [read(1, "x"), write(2, "y")]),
     TransactionError, "operation W2[y] does not belong to transaction 1"),
    ("foreign-commit", lambda: Transaction(1, [read(1, "x"), commit(2)]),
     TransactionError, "commit of transaction 2 in transaction 1"),
    ("op0-inside", lambda: Transaction(1, [OP0, read(1, "x")]),
     TransactionError, "operation op0 does not belong to transaction 1"),
    ("constructor-tid-zero", lambda: Transaction(0, [read(1, "x")]),
     TransactionError, "transaction id must be positive, got 0"),
    ("nonpositive-header", lambda: parse_workload("T1: R[x]\nT0: R[x]"),
     WorkloadError, "line 2: transaction id must be positive, got 0"),
    ("nonpositive-subscript", lambda: parse_workload("R0[x]"),
     WorkloadError, "line 1: transaction id must be positive, got 0"),
]


@pytest.mark.parametrize(
    "raise_error, exc_type, message",
    [row[1:] for row in ERROR_TABLE],
    ids=[row[0] for row in ERROR_TABLE],
)
def test_parser_error_table(raise_error, exc_type, message):
    with pytest.raises(Exception) as excinfo:
        raise_error()
    assert type(excinfo.value) is exc_type
    assert str(excinfo.value) == message


class TestSequenceOperations:
    def test_concatenates_in_order(self):
        t1 = parse_transaction("R1[x]")
        t2 = parse_transaction("W2[y]")
        ops = sequence_operations([t1, t2])
        assert ops == (read(1, "x"), commit(1), write(2, "y"), commit(2))


@given(sts.workloads())
def test_transaction_text_roundtrip(wl):
    """``parse_transaction(str(t)) == t``, with and without ``tid=``."""
    for txn in wl:
        assert parse_transaction(str(txn)) == txn
        body = " ".join(str(op) for op in txn.body)
        assert parse_transaction(body, tid=txn.tid) == txn


@given(sts.workloads())
def test_random_transactions_satisfy_normal_form(wl):
    """Generated transactions obey the one-read-one-write-per-object rule."""
    for txn in wl:
        reads = [op.obj for op in txn.body if op.is_read]
        writes = [op.obj for op in txn.body if op.is_write]
        assert len(reads) == len(set(reads))
        assert len(writes) == len(set(writes))
        assert txn.operations[-1].is_commit
