"""Unit and property tests for repro.core.incremental."""

import pytest
from hypothesis import HealthCheck, given, settings

import strategies as sts
from repro.core import incremental as incremental_module
from repro.core.allocation import optimal_allocation, refine_allocation
from repro.core.context import AnalysisContext
from repro.core.incremental import AllocationManager, incremental_counterexample
from repro.core.isolation import Allocation, IsolationLevel, ORACLE_LEVELS
from repro.core.robustness import Counterexample, check_robustness, is_robust
from repro.core.transactions import parse_transaction
from repro.core.workload import Workload, WorkloadError, workload


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
        manager = AllocationManager()
        manager.add(parse_transaction("R1[x] W1[y]"))
        manager.add(parse_transaction("R2[y] W2[x]"))
        manager.remove(1)
        assert manager.last_stats.index_builds == 1

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


class TestIncrementalCounterexample:
    def test_reuses_valid_witness(self, write_skew):
        alloc = Allocation.si(write_skew)
        first = check_robustness(write_skew, alloc).counterexample
        grown = Workload(
            list(write_skew) + [parse_transaction("R3[q] W3[q]")]
        )
        grown_alloc = Allocation({1: "SI", 2: "SI", 3: "SI"})
        reused = incremental_counterexample(first, grown, grown_alloc)
        assert reused is not None
        assert reused.spec == first.spec  # same chain, re-materialized

    def test_detects_new_robustness(self, write_skew):
        alloc = Allocation.si(write_skew)
        first = check_robustness(write_skew, alloc).counterexample
        # Upgrading both to SSI invalidates the witness and the workload
        # becomes robust.
        ssi = Allocation.ssi(write_skew)
        assert incremental_counterexample(first, write_skew, ssi) is None

    def test_rechecks_after_chain_member_removed(self, write_skew):
        alloc = Allocation.si(write_skew)
        first = check_robustness(write_skew, alloc).counterexample
        smaller = write_skew.without(2)
        smaller_alloc = Allocation({1: "SI"})
        assert incremental_counterexample(first, smaller, smaller_alloc) is None

    def test_no_previous_runs_fresh(self, write_skew):
        alloc = Allocation.si(write_skew)
        found = incremental_counterexample(None, write_skew, alloc)
        assert found is not None

    def _count_full_checks(self, monkeypatch):
        calls = []
        original = incremental_module.check_robustness

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(incremental_module, "check_robustness", spy)
        return calls

    def test_level_change_invalidates_cached_witness(self, write_skew, monkeypatch):
        """Condition (b): a chain level change forces a full re-check.

        The chain's Definition 3.1 conditions happen to hold under the new
        allocation too, so a conditions-only recheck (the old, buggy
        behaviour) would have reused the witness without running
        Algorithm 1.  The docstring requires an explicit level comparison.
        """
        si = Allocation.si(write_skew)
        first = check_robustness(write_skew, si).counterexample
        changed = si.with_level(1, IsolationLevel.RC)
        assert not is_robust(write_skew, changed)  # still non-robust
        calls = self._count_full_checks(monkeypatch)
        found = incremental_counterexample(first, write_skew, changed)
        assert found is not None
        assert len(calls) == 1  # full Algorithm 1 rerun, no blind reuse

    def test_unchanged_levels_reuse_without_full_check(self, write_skew, monkeypatch):
        si = Allocation.si(write_skew)
        first = check_robustness(write_skew, si).counterexample
        grown = Workload(list(write_skew) + [parse_transaction("R3[q] W3[q]")])
        grown_alloc = Allocation({1: "SI", 2: "SI", 3: "RC"})
        calls = self._count_full_checks(monkeypatch)
        reused = incremental_counterexample(first, grown, grown_alloc)
        assert reused is not None
        assert reused.spec == first.spec
        assert len(calls) == 0  # chain untouched: no full search

    def test_witness_without_allocation_is_not_trusted(self, write_skew, monkeypatch):
        """Legacy witnesses (no recorded allocation) trigger a full re-check."""
        si = Allocation.si(write_skew)
        first = check_robustness(write_skew, si).counterexample
        legacy = Counterexample(first.spec, first.schedule)  # allocation=None
        calls = self._count_full_checks(monkeypatch)
        found = incremental_counterexample(legacy, write_skew, si)
        assert found is not None
        assert len(calls) == 1


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


class TestCrossShardStaleWitness:
    """Satellite regression: reuse must reject chains crossing components.

    ``incremental_counterexample`` condition (c): after a mutation splits
    a component, a cached chain spanning the now-disconnected halves is
    not a split schedule any more.  The conditions-only recheck can still
    pass on a doctored witness (specs don't re-derive conflicts), so the
    ``same_shard`` guard is what forces the full re-check.
    """

    def test_same_shard_guard_forces_full_recheck(self, monkeypatch):
        from types import SimpleNamespace

        # Build a witness over a connected workload, then present a
        # current workload where the chain's tids are disconnected.
        connected = workload("R1[x] W1[y]", "R2[y] W2[x]")
        si = Allocation.si(connected)
        first = check_robustness(connected, si).counterexample
        split = workload("R1[a] W1[b]", "R2[c] W2[d]")  # two components
        doctored = Counterexample(
            first.spec, SimpleNamespace(workload=split), si
        )
        calls = []
        original = incremental_module.check_robustness

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(incremental_module, "check_robustness", spy)
        result = incremental_counterexample(doctored, split, si)
        # The split workload is robust; blind reuse of the doctored chain
        # would have certified non-robustness with a cross-component chain.
        assert result is None
        assert len(calls) == 1  # full Algorithm 1 rerun

    def test_connected_chain_still_reuses(self, monkeypatch):
        """The guard is not over-eager: same-component chains reuse."""
        connected = workload("R1[x] W1[y]", "R2[y] W2[x]")
        si = Allocation.si(connected)
        first = check_robustness(connected, si).counterexample
        calls = []
        original = incremental_module.check_robustness

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(incremental_module, "check_robustness", spy)
        reused = incremental_counterexample(first, connected, si)
        assert reused is not None
        assert reused.spec == first.spec
        assert len(calls) == 0
