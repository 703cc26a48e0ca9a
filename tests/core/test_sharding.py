"""Unit tests for conflict components (``repro.core.sharding``).

The property suite (``tests/properties/test_shard_equivalence.py``) pins
the end-to-end decomposition contract; this module pins the structural
pieces: component discovery against a brute-force pairwise reference,
component ordering, how an ``AnalysisContext`` builds its structure,
and how the incremental manager numbers each component in its one
context and keeps the rows of the components a mutation leaves alone.
"""

import pytest

from repro.core.context import AnalysisContext, ContextStats
from repro.core.incremental import AllocationManager
from repro.core.kernel import row_of
from repro.core.sharding import conflict_components
from repro.core.transactions import parse_transaction
from repro.core.workload import Workload, WorkloadError, workload
from repro.workloads.generator import clustered_workload, random_workload
from strategies import brute_force_components


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


class TestContextPlan:
    def test_context_shares_stats_and_builds_lazily(self):
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "W3[z]")
        ctx = AnalysisContext(wl)
        # The index is built with the context, and nothing else yet.
        assert ctx.stats == ContextStats(index_builds=1)
        row = row_of(ctx, ctx.component_of[1], ctx.bit[1])
        assert ctx.component_of[1].rows[ctx.bit[1]] is row
        assert ctx.stats.kernel_row_builds == 1
        assert ctx.stats.index_builds == 1  # one index per context

    def test_part_workloads(self):
        """The manager's one context numbers each component over its members."""
        manager = AllocationManager()
        texts = ("R1[x] W1[y]", "R2[y] W2[x]", "W3[z]")
        manager.apply_batch([("add", parse_transaction(t)) for t in texts])
        assert manager.components == ((1, 2), (3,))
        context = manager.context
        assert [
            context.component_of[members[0]].tids for members in manager.components
        ] == [(1, 2), (3,)]
        assert context.bit == {1: 0, 2: 1, 3: 0}

    def test_ensure_rejects_other_workload(self):
        wl = workload("R1[x]")
        other = workload("R1[y]")
        ctx = AnalysisContext(wl)
        ctx.ensure(wl)
        with pytest.raises(WorkloadError, match="different workload"):
            ctx.ensure(other)

    def test_untouched_component_keeps_its_context(self):
        manager = AllocationManager()
        texts = ("R1[x] W1[y]", "R2[y] W2[x]", "W3[z]")
        manager.apply_batch([("add", parse_transaction(t)) for t in texts])
        context = manager.context

        def row(tid):
            return row_of(context, context.component_of[tid], context.bit[tid])

        standing = {tid: row(tid) for tid in (1, 2)}
        manager.add(parse_transaction("R4[z] W4[z]"))
        assert manager.components == ((1, 2), (3, 4))
        assert all(row(tid) is cached for tid, cached in standing.items())
        assert manager.last_stats.index_builds == 0  # (3, 4) renumbered in place

    def test_record_check_counts_one_logical_check(self):
        wl = workload("R1[x]", "R2[y]")
        stats = ContextStats()
        ctx = AnalysisContext(wl, stats=stats)
        ctx.record_check()
        assert stats.checks == 1
