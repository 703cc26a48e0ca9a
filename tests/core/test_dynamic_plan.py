"""Unit coverage of :class:`repro.core.sharding.DynamicShardPlan`.

The incremental partition behind ``AllocationManager``: adds merge the
components the transaction conflicts into, removals re-check
connectivity only over the departed component, and singleton/leaf
departures short-circuit with no recheck at all.  The canonical view
must be *identical* to ``conflict_components(workload)`` after any
mutation sequence (the randomized version of that contract lives in
``tests/properties/test_plan_maintenance.py``).
"""

import random

import pytest

from repro.core.context import ContextStats
from repro.core.incremental import AllocationManager
from repro.core.sharding import DynamicShardPlan, conflict_components
from repro.core.transactions import parse_transaction
from repro.core.workload import Workload, WorkloadError


def _chain():
    """T1 -x- T2 -x- T3: T2 bridges, T1 and T3 are leaves."""
    return [
        parse_transaction("R1[a] W1[y]"),
        parse_transaction("R2[y] W2[z]"),
        parse_transaction("R3[z] W3[b]"),
    ]


class TestAdd:
    def test_isolated_add_is_a_singleton(self):
        plan = DynamicShardPlan()
        assert plan.add(parse_transaction("R1[x] W1[y]")) == (1,)
        assert plan.shards == ((1,),)

    def test_conflicting_add_merges(self):
        stats = ContextStats()
        plan = DynamicShardPlan(stats=stats)
        plan.add(parse_transaction("R1[x] W1[x]"))
        plan.add(parse_transaction("R2[a] W2[b]"))
        # Writes x (T1's object) and b's reader-free object: merges T1 in.
        merged = plan.add(parse_transaction("R3[x] W3[c]"))
        assert merged == (1, 3)
        assert plan.shards == ((1, 3), (2,))
        assert stats.plan_merges == 0  # single neighbour: no cross-merge

    def test_writer_links_prior_readers(self):
        """Readers of an unwritten object sit apart until a writer arrives."""
        stats = ContextStats()
        plan = DynamicShardPlan(stats=stats)
        plan.add(parse_transaction("R1[shared] W1[p]"))
        plan.add(parse_transaction("R2[shared] W2[q]"))
        assert plan.shards == ((1,), (2,))
        plan.add(parse_transaction("W3[shared]"))
        assert plan.shards == ((1, 2, 3),)
        assert stats.plan_merges == 1  # two components collapsed into one

    def test_duplicate_add_rejected(self):
        plan = DynamicShardPlan()
        plan.add(parse_transaction("R1[x] W1[x]"))
        with pytest.raises(WorkloadError):
            plan.add(parse_transaction("R1[y] W1[y]"))


class TestRemove:
    def test_singleton_departure_is_reuse(self):
        stats = ContextStats()
        plan = DynamicShardPlan(Workload(_chain()), stats=stats)
        plan.add(parse_transaction("R9[lonely] W9[lonely]"))
        before = stats.plan_splits
        assert plan.remove(9) == ()
        assert stats.plan_reuse >= 1
        assert stats.plan_splits == before
        assert plan.shards == ((1, 2, 3),)

    def test_leaf_departure_skips_the_recheck(self):
        stats = ContextStats()
        plan = DynamicShardPlan(Workload(_chain()), stats=stats)
        survivors = plan.remove(3)  # T3 conflicts only with T2
        assert survivors == (1, 2)
        assert stats.plan_reuse == 1
        assert stats.plan_splits == 0
        assert plan.shards == ((1, 2),)

    def test_bridge_departure_splits(self):
        stats = ContextStats()
        plan = DynamicShardPlan(Workload(_chain()), stats=stats)
        survivors = plan.remove(2)
        assert survivors == (1, 3)
        assert stats.plan_splits == 1
        assert plan.shards == ((1,), (3,))

    def test_connected_survivors_stay_together(self):
        txns = _chain() + [parse_transaction("R4[y] W4[z]")]  # T4 || T2
        plan = DynamicShardPlan(Workload(txns))
        # T2 had several neighbours, but T4 keeps the rest connected.
        assert plan.remove(2) == (1, 3, 4)
        assert plan.shards == ((1, 3, 4),)

    def test_unknown_tid_rejected(self):
        with pytest.raises(WorkloadError):
            DynamicShardPlan(Workload(_chain())).remove(404)


class TestCanonicalView:
    def test_matches_fresh_shardplan_after_churn(self):
        rng = random.Random(7)
        txns = {}
        plan = DynamicShardPlan()
        objects = [f"o{i}" for i in range(8)]
        for step in range(120):
            if txns and rng.random() < 0.45:
                tid = rng.choice(sorted(txns))
                del txns[tid]
                plan.remove(tid)
            else:
                tid = step + 1
                reads = rng.sample(objects, rng.randint(0, 2))
                writes = rng.sample(objects, rng.randint(1, 2))
                text = " ".join(
                    [f"R{tid}[{o}]" for o in reads]
                    + [f"W{tid}[{o}]" for o in writes]
                )
                txn = parse_transaction(text)
                txns[tid] = txn
                plan.add(txn)
            expected = conflict_components(Workload(txns.values()))
            assert plan.shards == expected, f"diverged at step {step}"


class TestManagerSingletonRemoval:
    """Satellite regression: removing an isolated transaction is O(1) —
    no conflict index is rebuilt, no robustness check is spent."""

    def test_zero_index_builds(self):
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        manager.add(parse_transaction("R2[y] W2[x]"))
        manager.add(parse_transaction("R9[solo] W9[solo]"))
        manager.remove(9)
        stats = manager.last_stats.as_dict()
        assert stats["index_builds"] == 0
        assert stats["checks"] == 0
        assert stats["plan_reuse"] >= 1
        assert {
            tid: level.name for tid, level in manager.allocation.items()
        } == {1: "SSI", 2: "SSI"}
