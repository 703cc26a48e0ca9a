"""Unit tests for repro.core.workload."""

import pytest
from hypothesis import given

import strategies as sts
from repro.core.operations import read, write
from repro.core.transactions import Transaction, parse_transaction
from repro.core.workload import Workload, WorkloadError, parse_workload, workload


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(WorkloadError):
            Workload([parse_transaction("R1[x]"), parse_transaction("W1[y]")])

    def test_sorted_by_tid(self):
        wl = Workload([parse_transaction("R5[x]"), parse_transaction("R2[x]")])
        assert wl.tids == (2, 5)

    def test_empty_workload(self):
        wl = Workload([])
        assert len(wl) == 0
        assert wl.operations() == ()
        assert wl.objects() == frozenset()


class TestAccessors:
    def setup_method(self):
        self.wl = workload("R1[x] W1[y]", "R2[y] W2[x]")

    def test_getitem(self):
        assert self.wl[1].tid == 1

    def test_getitem_missing(self):
        with pytest.raises(WorkloadError):
            self.wl[9]

    def test_contains(self):
        assert 1 in self.wl and 9 not in self.wl

    def test_iteration_order(self):
        assert [t.tid for t in self.wl] == [1, 2]

    def test_transaction_of(self):
        assert self.wl.transaction_of(read(1, "x")).tid == 1

    def test_transaction_of_foreign(self):
        with pytest.raises(WorkloadError):
            self.wl.transaction_of(read(3, "x"))

    def test_transaction_of_wrong_op(self):
        with pytest.raises(WorkloadError):
            self.wl.transaction_of(write(1, "x"))  # T1 writes y, not x

    def test_operations_counts_commits(self):
        assert self.wl.operation_count() == 6
        assert len(self.wl.operations()) == 6

    def test_objects(self):
        assert self.wl.objects() == {"x", "y"}

    def test_without(self):
        smaller = self.wl.without(1)
        assert smaller.tids == (2,)

    def test_without_missing(self):
        with pytest.raises(WorkloadError):
            self.wl.without(9)

    def test_restricted_to(self):
        assert self.wl.restricted_to([2]).tids == (2,)

    def test_equality_and_hash(self):
        other = workload("R1[x] W1[y]", "R2[y] W2[x]")
        assert other == self.wl
        assert hash(other) == hash(self.wl)


class TestParsing:
    def test_workload_positional_ids(self):
        wl = workload("R[x]", "W[y]")
        assert wl.tids == (1, 2)

    def test_workload_explicit_ids(self):
        wl = workload("R7[x]", "W3[y]")
        assert wl.tids == (3, 7)

    def test_parse_workload_headers(self):
        wl = parse_workload("T1: R[x] W[y]\nT2: R[y]")
        assert wl.tids == (1, 2)
        assert wl[2].read_set == {"y"}

    def test_parse_workload_comments_and_blank_lines(self):
        wl = parse_workload("# hello\n\nT1: R[x]\n  # more\nT2: W[x]\n")
        assert wl.tids == (1, 2)

    def test_parse_workload_inline_ids(self):
        wl = parse_workload("R1[x] W1[y]\nR2[y]")
        assert wl.tids == (1, 2)

    def test_parse_workload_bad_header(self):
        with pytest.raises(WorkloadError):
            parse_workload("Q1: R[x]")

    def test_parse_workload_bad_body(self):
        with pytest.raises(WorkloadError):
            parse_workload("T1: R[x] X[y]")

    def test_str_format_reparses(self):
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]")
        assert parse_workload(str(wl)) == wl

    def test_parse_workload_zero_header(self):
        with pytest.raises(WorkloadError) as excinfo:
            parse_workload("T1: R[x]\nT0: R[x] W[y]")
        assert str(excinfo.value) == "line 2: transaction id must be positive, got 0"

    def test_parse_workload_zero_subscript(self):
        with pytest.raises(WorkloadError) as excinfo:
            parse_workload("R1[x]\n# comment\nR0[x] W0[y]")
        assert str(excinfo.value) == "line 3: transaction id must be positive, got 0"


@given(sts.workloads(max_transactions=6))
def test_workload_text_roundtrip(wl):
    assert parse_workload(str(wl)) == wl
