"""Unit tests for repro.enumeration.interleavings."""

import math

from hypothesis import given, settings

import strategies as sts
from repro.enumeration.interleavings import interleaving_count, interleavings
from repro.core.workload import workload


class TestCounting:
    def test_two_singletons(self):
        wl = workload("R1[x]", "R2[y]")  # 2 ops each with commit
        # 4 operations, 2 per transaction: C(4,2) = 6.
        assert interleaving_count(wl) == 6

    def test_empty_workload(self):
        assert interleaving_count(workload()) == 1

    def test_single_transaction(self):
        wl = workload("R1[x] W1[y]")
        assert interleaving_count(wl) == 1

    def test_multinomial_formula(self):
        wl = workload("R1[x] W1[y]", "R2[a] W2[b]", "R3[c]")
        # lengths 3, 3, 2 -> 8! / (3! 3! 2!)
        expected = math.factorial(8) // (6 * 6 * 2)
        assert interleaving_count(wl) == expected


class TestEnumeration:
    def test_enumerates_exactly_the_count(self):
        wl = workload("R1[x] W1[y]", "R2[a]")
        produced = list(interleavings(wl))
        assert len(produced) == interleaving_count(wl)
        assert len(set(produced)) == len(produced)

    def test_respects_program_order(self):
        wl = workload("R1[x] W1[y]", "R2[a]")
        for order in interleavings(wl):
            positions = {op: i for i, op in enumerate(order)}
            for txn in wl:
                ops = txn.operations
                for a, b in zip(ops, ops[1:]):
                    assert positions[a] < positions[b]

    def test_every_order_contains_all_operations(self):
        wl = workload("R1[x]", "W2[x]")
        expected = set(wl.operations())
        for order in interleavings(wl):
            assert set(order) == expected

    def test_deterministic(self):
        wl = workload("R1[x]", "W2[x]")
        assert list(interleavings(wl)) == list(interleavings(wl))


@given(sts.workloads(max_transactions=3, max_accesses=2))
@settings(max_examples=25, deadline=None)
def test_enumeration_matches_count(wl):
    if interleaving_count(wl) > 10_000:
        return
    assert sum(1 for _ in interleavings(wl)) == interleaving_count(wl)
