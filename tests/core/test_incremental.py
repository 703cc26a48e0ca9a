"""Unit and property tests for repro.core.incremental."""

import pytest
from hypothesis import HealthCheck, given, settings

import strategies as sts
from repro.core.allocation import optimal_allocation, refine_allocation
from repro.core.context import AnalysisContext
from repro.core.incremental import AllocationManager
from repro.core.isolation import Allocation, IsolationLevel, ORACLE_LEVELS
from repro.core.robustness import is_robust
from repro.core.transactions import parse_transaction
from repro.core.workload import Workload, WorkloadError


class TestAllocationManager:
    def test_empty_start(self):
        manager = AllocationManager()
        assert len(manager.workload) == 0
        assert manager.allocation == Allocation({})

    def test_add_single(self):
        manager = AllocationManager()
        alloc = manager.add(parse_transaction("R1[x] W1[y]"))
        assert alloc[1] is IsolationLevel.RC

    def test_write_skew_forces_upgrade(self):
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        alloc = manager.add(parse_transaction("R2[y] W2[x]"))
        assert alloc[1] is IsolationLevel.SSI
        assert alloc[2] is IsolationLevel.SSI

    def test_remove_relaxes(self):
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        manager.add(parse_transaction("R2[y] W2[x]"))
        alloc = manager.remove(1)
        assert alloc[2] is IsolationLevel.RC

    def test_duplicate_add_rejected(self):
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x]"))
        with pytest.raises(WorkloadError):
            manager.add(parse_transaction("W1[y]"))

    def test_remove_missing_rejected(self):
        with pytest.raises(WorkloadError):
            AllocationManager().remove(5)

    def test_requires_ssi_in_class(self):
        with pytest.raises(ValueError, match="SSI"):
            AllocationManager(levels=ORACLE_LEVELS)

    def test_check_arbitrary_allocation(self):
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        manager.add(parse_transaction("R2[y] W2[x]"))
        assert not manager.check(Allocation.si(manager.workload))
        assert manager.check(Allocation.ssi(manager.workload))

    def test_warm_start_skips_checks_when_independent(self):
        manager = AllocationManager()
        manager.add(parse_transaction("R1[a] W1[a]"))
        manager.add(parse_transaction("R2[b] W2[b]"))
        # Third transaction on fresh objects: the old optimum must hold,
        # so only the newcomer is refined (at most 1 + levels-1 checks).
        manager.add(parse_transaction("R3[c] W3[c]"))
        assert manager.last_check_count <= 3

    def test_remove_reports_exact_check_count(self):
        """remove() counts real checks, not the old ``|T| * (levels-1)`` estimate."""
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        manager.add(parse_transaction("R2[y] W2[x]"))
        manager.remove(1)
        # Lone T2 starts at SSI; lowering straight to RC succeeds on the
        # first (and only) robustness check.  The old estimate said 2.
        assert manager.last_check_count == 1

    def test_remove_count_matches_independent_refinement(self):
        """remove()'s counter equals an independently instrumented refinement."""
        texts = ["R1[x] W1[y]", "R2[y] W2[x]", "R3[x] W3[x]", "R4[q]"]
        manager = AllocationManager()
        for text in texts:
            manager.add(parse_transaction(text))
        before_remove = manager.allocation
        manager.remove(2)
        remaining = Workload(
            [parse_transaction(t) for t in texts if not t.startswith("R2")]
        )
        start = Allocation({tid: before_remove[tid] for tid in remaining.tids})
        ctx = AnalysisContext(remaining)
        expected = refine_allocation(
            remaining, start, manager._levels, context=ctx
        )
        assert manager.allocation == expected
        assert manager.last_check_count == ctx.stats.checks
        assert manager.last_stats.checks == ctx.stats.checks

    def test_mutation_builds_one_context(self):
        """The manager's one index is renumbered in place, never rebuilt."""
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        manager.add(parse_transaction("R2[y] W2[x]"))
        manager.remove(1)
        assert manager.last_stats.index_builds == 0

    def test_mutations_build_no_index(self):
        """Adds, removes and batches renumber the one index in place."""
        manager = AllocationManager()
        mutations = [
            [("add", parse_transaction("R1[x] W1[y]"))],
            [("add", parse_transaction("R2[y] W2[x]")),
             ("add", parse_transaction("R3[z] W3[x]"))],
            [("remove", 2)],
            [("remove", 1), ("add", parse_transaction("R4[y] W4[z]"))],
        ]
        for batch in mutations:
            manager.apply_batch(batch)
            assert manager.last_stats.index_builds == 0, batch
            assert manager.last_stats.checks > 0, batch

    def test_check_probes_do_not_disturb_last_check_count(self, write_skew):
        manager = AllocationManager()
        for txn in write_skew:
            manager.add(txn)
        count = manager.last_check_count
        manager.check(Allocation.si(manager.workload))
        assert manager.last_check_count == count


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_incremental_add_matches_batch(wl):
    """Adding one by one lands on the same optimum as Algorithm 2."""
    manager = AllocationManager()
    for txn in wl:
        manager.add(txn)
    assert manager.allocation == optimal_allocation(wl)


@given(sts.workloads(min_transactions=2, max_transactions=4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_incremental_remove_matches_batch(wl):
    """Removing a transaction re-optimizes exactly."""
    manager = AllocationManager()
    for txn in wl:
        manager.add(txn)
    victim = wl.tids[0]
    manager.remove(victim)
    assert manager.allocation == optimal_allocation(wl.without(victim))


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_subset_robustness_monotonicity(wl):
    """Counterexamples survive growth: subsets of robust workloads are robust."""
    alloc = Allocation.si(wl)
    if not is_robust(wl, alloc):
        return
    for tid in wl.tids:
        smaller = wl.without(tid)
        smaller_alloc = Allocation({t: alloc[t] for t in smaller.tids})
        assert is_robust(smaller, smaller_alloc)


def test_save_state_workload_is_the_workload_text():
    """The per-transaction lines ``save_state`` keeps join to
    ``str(manager.workload)`` through adds, removes, a batch that
    removes a tid and re-adds it with another body, and a restore."""
    manager = AllocationManager()

    def saved(m):
        state = m.save_state()
        assert state["workload"] == str(m.workload)
        return state

    for tid, text in enumerate(("R[x] W[y]", "R[y] W[x]", "R[z]", "W[z]"), start=1):
        manager.add(parse_transaction(text, tid=tid))
        saved(manager)
    manager.remove(2)
    saved(manager)
    manager.apply_batch([("remove", 3), ("add", parse_transaction("R[q] W[z]", tid=3))])
    manager.apply_batch([("add", parse_transaction("R[y]", tid=2)), ("remove", 1)])
    state = saved(manager)
    assert "T3: R3[q] W3[z] C3" in state["workload"]
    restored = AllocationManager.load_state(state)
    assert saved(restored) == state
    restored.add(parse_transaction("W[q]", tid=9))
    saved(restored)


class TestWitnessCachePruningOnRemoval:
    """Regression: a removed transaction leaves nothing later probes read.

    The manager keeps no witness chains, and a re-analyzed component
    starts from a fresh context, so no chain naming a removed
    transaction can reject a later candidate.
    """

    def test_remove_then_readd_conflicting_transaction(self):
        """Remove a chain member, re-add a conflicting transaction.

        The re-added transaction recreates write skew with T1, so the
        correct optimum is SSI/SSI — but it must come from a *fresh*
        witness over {1, 3}, never from the pruned {1, 2} chain.
        """
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        manager.add(parse_transaction("R2[y] W2[x]"))
        assert manager.allocation[1] is IsolationLevel.SSI
        manager.remove(2)
        assert manager.allocation[1] is IsolationLevel.RC
        alloc = manager.add(parse_transaction("R3[y] W3[x]"))
        assert alloc[1] is IsolationLevel.SSI
        assert alloc[3] is IsolationLevel.SSI
        # The manager's verdict equals a from-scratch computation.
        assert alloc == optimal_allocation(manager.workload)
        assert manager.check(alloc)
