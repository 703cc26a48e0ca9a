"""Unit tests for conflict-component sharding (``repro.core.sharding``).

The property suite (``tests/properties/test_shard_equivalence.py``) pins
the end-to-end bit-identity contract; this module pins the structural
pieces: component discovery against a brute-force pairwise reference,
plan ordering, and how an ``AnalysisContext`` builds a core per part of
its plan.
"""

import itertools

import pytest

from repro.core.conflicts import transactions_conflict
from repro.core.context import AnalysisContext, ContextStats
from repro.core.sharding import ShardPlan, conflict_components
from repro.core.workload import Workload, WorkloadError, workload
from repro.workloads.generator import clustered_workload, random_workload


def brute_force_components(wl: Workload) -> set:
    """Reference partition: union-by-pairwise ``transactions_conflict``."""
    parent = {tid: tid for tid in wl.tids}

    def find(tid):
        while parent[tid] != tid:
            parent[tid] = parent[parent[tid]]
            tid = parent[tid]
        return tid

    for a, b in itertools.combinations(wl, 2):
        if transactions_conflict(a, b):
            parent[find(a.tid)] = find(b.tid)
    groups = {}
    for tid in wl.tids:
        groups.setdefault(find(tid), []).append(tid)
    return {tuple(sorted(group)) for group in groups.values()}


class TestConflictComponents:
    def test_matches_brute_force_on_random_workloads(self):
        for seed in range(12):
            wl = random_workload(
                transactions=14, objects=10, min_ops=1, max_ops=4, seed=seed
            )
            assert set(conflict_components(wl)) == brute_force_components(wl)

    def test_matches_brute_force_on_clustered_workloads(self):
        for seed in range(6):
            wl = clustered_workload(components=4, per_component=4, seed=seed)
            comps = conflict_components(wl)
            assert set(comps) == brute_force_components(wl)
            assert len(comps) >= 4

    def test_components_ordered_by_smallest_tid_members_ascending(self):
        wl = workload(
            "R1[a] W1[b]",   # component {1, 4} (round-robin-ish layout)
            "R2[p] W2[q]",   # component {2, 5}
            "W3[z]",         # singleton
            "R4[b] W4[a]",
            "R5[q] W5[p]",
        )
        comps = conflict_components(wl)
        assert comps == ((1, 4), (2, 5), (3,))

    def test_readers_of_unwritten_object_do_not_conflict(self):
        # x has two readers and no writer: no conflict, three singletons.
        wl = workload("R1[x]", "R2[x]", "W3[y]")
        assert conflict_components(wl) == ((1,), (2,), (3,))

    def test_write_write_conflict_joins(self):
        wl = workload("W1[x]", "W2[x]")
        assert conflict_components(wl) == ((1, 2),)

    def test_reader_linked_through_writer(self):
        # 1 and 3 never touch a common object but both conflict with 2.
        wl = workload("R1[x]", "W2[x] W2[y]", "R3[y]")
        assert conflict_components(wl) == ((1, 2, 3),)

    def test_empty_workload(self):
        assert conflict_components(Workload([])) == ()


class TestShardPlan:
    def test_plan_shape(self):
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "W3[z]")
        plan = ShardPlan(wl)
        assert len(plan) == 2
        assert plan.shards == ((1, 2), (3,))
        assert plan.sizes == (2, 1)
        assert plan.shard_of == {1: 0, 2: 0, 3: 1}


class TestContextPlan:
    def test_cores_share_stats_and_build_lazily(self):
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "W3[z]")
        ctx = AnalysisContext(wl)
        assert ctx.plan.shards == ((1, 2), (3,))
        assert ctx.stats.index_builds == 0  # nothing built yet
        core = ctx._core(0)
        assert core is ctx._core(0)  # cached
        assert core.stats is ctx.stats
        assert ctx.stats.index_builds == 1  # part 1 still unbuilt
        ctx._core(1)
        assert ctx.stats.index_builds == 2

    def test_part_workloads(self):
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "W3[z]")
        ctx = AnalysisContext(wl)
        assert ctx._part_workload(0).tids == (1, 2)
        assert ctx._core(1).workload.tids == (3,)
        whole = AnalysisContext(wl, plan=ShardPlan.from_components((wl.tids,)))
        assert whole._part_workload(0) is wl  # a one-part plan copies nothing

    def test_ensure_rejects_other_workload(self):
        wl = workload("R1[x]")
        other = workload("R1[y]")
        ctx = AnalysisContext(wl)
        ctx.ensure(wl)
        with pytest.raises(WorkloadError, match="different workload"):
            ctx.ensure(other)

    def test_adopt_installs_a_core_and_its_workload(self):
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "W3[z]")
        donor = AnalysisContext(wl)
        ctx = AnalysisContext(wl, plan=donor.plan)
        core = donor._core(1)
        ctx._adopt(1, core)
        assert ctx._core(1) is core
        assert ctx._part_workload(1) is core.workload
        assert ctx.stats.index_builds == 0

    def test_record_check_counts_one_logical_check(self):
        wl = workload("R1[x]", "R2[y]")
        stats = ContextStats()
        ctx = AnalysisContext(wl, stats=stats)
        ctx.record_check()
        assert stats.checks == 1
