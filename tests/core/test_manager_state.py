"""``AllocationManager.save_state`` / ``load_state`` round-trips.

The service's warm snapshots are only useful if a restored manager is
indistinguishable from the original: same workload, same allocation,
same components, so the next mutation's ContextStats-visible work
(checks, index builds, kernel rows built) is identical on both sides.
"""

import pytest

from repro.core.context import ContextStats
from repro.core.incremental import AllocationManager
from repro.core.isolation import IsolationLevel
from repro.core.transactions import parse_transaction
from repro.core.workload import WorkloadError
from repro.workloads.generator import clustered_workload, random_workload


def _filled_manager():
    manager = AllocationManager()
    manager.add(parse_transaction("R1[x] W1[y]"))
    manager.add(parse_transaction("R2[y] W2[x]"))
    manager.add(parse_transaction("R3[a] W3[b]"))
    manager.add(parse_transaction("R4[b] W4[a]"))
    return manager


class TestRoundTrip:
    def test_workload_and_allocation_survive(self):
        manager = _filled_manager()
        restored = AllocationManager.load_state(manager.save_state())
        assert restored.workload == manager.workload
        assert dict(restored.allocation.items()) == dict(
            manager.allocation.items()
        )

    def test_state_is_json_plain(self):
        import json

        state = _filled_manager().save_state()
        assert json.loads(json.dumps(state)) == state

    def test_levels_and_method_survive(self):
        manager = AllocationManager(levels=(IsolationLevel.RC, IsolationLevel.SSI))
        manager.add(parse_transaction("R1[x] W1[x]"))
        state = manager.save_state()
        assert "method" not in state
        # Earlier builds also wrote the manager's engine; it is ignored.
        restored = AllocationManager.load_state(dict(state, method="components"))
        next_alloc = restored.add(parse_transaction("R2[x] W2[x]"))
        # The restored class excludes SI: every level is RC or SSI.
        assert all(
            level in (IsolationLevel.RC, IsolationLevel.SSI)
            for _tid, level in next_alloc.items()
        )
        assert "method" not in restored.save_state()

    def test_snapshot_with_method_restores_verified(self):
        """A state from a build whose manager took ``method=`` still loads.

        Such a state is today's document plus ``"method"``.  It restores,
        its allocation checks robust, and the restored manager finds the
        same next optima, with the same checks, as the manager that saved
        it.
        """
        txns = list(
            random_workload(transactions=24, objects=30, min_ops=2, max_ops=3, seed=17)
        )
        manager = AllocationManager()
        manager.apply_batch([("add", txn) for txn in txns[:20]])
        legacy = dict(manager.save_state(), method="components")
        restored = AllocationManager.load_state(legacy)
        assert restored.check(restored.allocation)
        for txn in txns[20:]:
            assert restored.add(txn) == manager.add(txn)
            assert restored.last_check_count == manager.last_check_count

    def test_empty_manager_round_trips(self):
        restored = AllocationManager.load_state(AllocationManager().save_state())
        assert len(restored.workload) == 0
        assert len(restored.allocation) == 0

    def test_verify_accepts_consistent_state(self):
        manager = _filled_manager()
        restored = AllocationManager.load_state(manager.save_state())
        assert restored.check(restored.allocation)
        assert restored.workload == manager.workload

    def test_clustered_workload_round_trips(self):
        manager = AllocationManager()
        for txn in clustered_workload(components=3, per_component=3, seed=5):
            manager.add(txn)
        restored = AllocationManager.load_state(manager.save_state())
        assert dict(restored.allocation.items()) == dict(
            manager.allocation.items()
        )


class TestStateValidation:
    def test_version_mismatch(self):
        state = _filled_manager().save_state()
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            AllocationManager.load_state(state)

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_must_be_the_int(self, version):
        state = dict(_filled_manager().save_state(), version=version)
        with pytest.raises(ValueError, match="unsupported manager state version"):
            AllocationManager.load_state(state)

    def test_allocation_must_cover_workload(self):
        state = _filled_manager().save_state()
        state["allocation"].popitem()
        with pytest.raises(WorkloadError):
            AllocationManager.load_state(state)

    def test_corrupt_witnesses_are_skipped_not_fatal(self):
        state = _filled_manager().save_state()
        state["witnesses"] = [[[1, 999, 999, 2]]]
        restored = AllocationManager.load_state(state)
        assert restored.workload == _filled_manager().workload

    def test_snapshot_with_witnesses_restores_to_the_same_next_optimum(self):
        """A snapshot from a build that cached witness chains still loads.

        ``load_state`` ignores the ``witnesses`` field, so a restored
        manager makes the same next mutation, counter for counter, as one
        restored from the same state without it.
        """
        manager = _filled_manager()
        state = manager.save_state()
        assert "witnesses" not in state
        legacy = dict(state, witnesses=[[[1, 0, 1, 2], [2, 0, 1, 1]]])
        with_chains = AllocationManager.load_state(legacy)
        without = AllocationManager.load_state(state)
        newcomer = "R5[y] W5[x]"
        expected = manager.add(parse_transaction(newcomer))
        assert with_chains.add(parse_transaction(newcomer)) == expected
        assert without.add(parse_transaction(newcomer)) == expected
        assert with_chains.last_stats.as_dict() == without.last_stats.as_dict()
        assert with_chains.save_state() == manager.save_state()


class TestWarmStartEquivalence:
    """The satellite regression: restored == original, counter for counter."""

    def test_next_mutation_stats_identical(self):
        manager = _filled_manager()
        restored = AllocationManager.load_state(manager.save_state())

        newcomer = parse_transaction("R5[y] W5[x]")
        alloc_orig = manager.add(newcomer)
        alloc_rest = restored.add(parse_transaction("R5[y] W5[x]"))

        assert dict(alloc_orig.items()) == dict(alloc_rest.items())
        assert manager.last_check_count == restored.last_check_count
        assert (
            manager.last_stats.as_dict() == restored.last_stats.as_dict()
        ), "a restored manager must replay the exact same analysis"

    def test_double_round_trip_is_stable(self):
        manager = _filled_manager()
        once = AllocationManager.load_state(manager.save_state())
        twice = AllocationManager.load_state(once.save_state())
        assert once.save_state() == twice.save_state()


class TestPlanPersistence:
    """Restore re-derives the components and ignores a persisted partition.

    Snapshots written by earlier builds carry the partition as ``plan``.
    Trusting it would need the same flood fills that re-deriving costs,
    so a restore never reads it.
    """

    def test_state_omits_the_partition(self):
        assert "plan" not in _filled_manager().save_state()

    def test_split_plan_cannot_certify_a_non_robust_allocation(self):
        """A ``plan`` splitting write skew must not hide its witness."""
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        manager.add(parse_transaction("R2[y] W2[x]"))
        for plan in ([[1], [2]], [[1, 2]]):
            state = manager.save_state()
            state["allocation"] = {"1": "SI", "2": "SI"}
            state["plan"] = plan
            restored = AllocationManager.load_state(state)
            assert restored.components == ((1, 2),)
            result = restored.check(restored.allocation)
            assert not result.robust
            assert result.counterexample.spec.split_tid == 1

    def test_corrupt_plan_falls_back_to_full_build(self):
        state = _filled_manager().save_state()
        state["plan"] = [[1, 2], [2, 3, 4]]  # overlapping: invalid
        restored = AllocationManager.load_state(state)
        assert restored.components == ((1, 2), (3, 4))
        assert restored.workload == _filled_manager().workload

    def test_missing_plan_field_falls_back_to_full_build(self):
        state = _filled_manager().save_state()
        state.pop("plan", None)  # pre-plan-persistence snapshot
        restored = AllocationManager.load_state(state)
        assert restored.last_stats.as_dict() == ContextStats().as_dict()
        assert dict(restored.allocation.items()) == dict(
            _filled_manager().allocation.items()
        )

    def test_next_mutation_plan_work_identical(self):
        """Restored == original on every counter of the next mutation,
        not just checks, and on the components."""
        manager = _filled_manager()
        restored = AllocationManager.load_state(manager.save_state())
        manager.remove(3)
        restored.remove(3)
        assert manager.last_stats.as_dict() == restored.last_stats.as_dict()
        assert manager.components == restored.components
