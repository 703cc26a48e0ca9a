"""Unit tests for repro.core.context (shared analysis structure)."""

import pytest

from repro.core.allocation import optimal_allocation
from repro.core.context import AnalysisContext, ContextStats
from repro.core.isolation import Allocation
from repro.core.kernel import _reach, connecting_path, row_of
from repro.core.reference import ReachabilityOracle, conflict_sets
from repro.core.robustness import check_robustness, is_robust
from repro.core.workload import WorkloadError, workload
from repro.workloads.generator import clustered_workload
from repro.workloads.paper_examples import example26_workload, figure2_workload
from repro.workloads.smallbank import smallbank_one_of_each
from repro.workloads.tpcc import tpcc_one_of_each


class TestConflictIndexAccounting:
    def test_exactly_one_index_per_optimal_allocation(self):
        """A full Algorithm 2 run builds the index exactly once."""
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[x] W3[x]", "R4[q]")
        ctx = AnalysisContext(wl)
        optimal_allocation(wl, context=ctx)
        assert ctx.stats.index_builds == 1
        assert ctx.stats.checks > 2  # many checks, one index

    @pytest.mark.parametrize(
        "factory",
        [
            smallbank_one_of_each,
            tpcc_one_of_each,
            figure2_workload,
            example26_workload,
        ],
    )
    def test_one_index_on_real_workloads(self, factory):
        wl = factory()
        ctx = AnalysisContext(wl)
        assert optimal_allocation(wl, context=ctx) is not None
        assert ctx.stats.index_builds == 1

    def test_uncontexted_check_builds_private_index(self, write_skew):
        for alloc in (Allocation.si(write_skew), Allocation.ssi(write_skew)):
            ctx = AnalysisContext(write_skew)  # one cold context per check
            check_robustness(write_skew, alloc, context=ctx)
            assert ctx.stats.index_builds == 1


class TestContextCaching:
    def test_conflicting_pairs_cached(self, write_skew):
        ctx = AnalysisContext(write_skew)
        pairs = ctx.conflicting_pairs(1, 2)
        assert pairs  # write skew: R1[x] conflicts W2[x], W1[y] with R2[y]
        assert ctx.conflicting_pairs(1, 2) is pairs
        assert ctx.stats.pair_builds == 1
        assert ctx.stats.pair_hits == 1

    def test_context_rejects_other_workload(self, write_skew, lost_update):
        ctx = AnalysisContext(write_skew)
        with pytest.raises(WorkloadError):
            check_robustness(lost_update, Allocation.si(lost_update), context=ctx)

    def test_context_accepts_equal_workload_copy(self, write_skew):
        from repro.core.workload import Workload

        ctx = AnalysisContext(write_skew)
        copy = Workload(list(write_skew))
        assert not is_robust(copy, Allocation.si(copy), context=ctx)

    def test_context_rejects_same_tids_with_another_body(self, write_skew):
        """The context compares transactions, not only their ids."""
        ctx = AnalysisContext(write_skew)
        changed = workload("R1[x] W1[y]", "R2[y] W2[z]")
        assert changed.tids == write_skew.tids
        with pytest.raises(WorkloadError, match="different workload"):
            ctx.ensure(changed)
        with pytest.raises(WorkloadError):
            is_robust(changed, Allocation.si(changed), context=ctx)


class TestWitnessCache:
    """The context caches no witnesses: a shared context answers exactly
    what a private one does."""

    def test_warm_start_does_not_change_result(self):
        wl = workload("R1[x] W1[y]", "R2[y] W2[x]", "R3[x] W3[x]", "R4[q]")
        ctx = AnalysisContext(wl)
        with_cache = optimal_allocation(wl, context=ctx)
        cold = optimal_allocation(wl)  # private context per call
        assert with_cache == cold


class TestCounterexampleAllocation:
    def test_counterexample_records_allocation(self, write_skew):
        si = Allocation.si(write_skew)
        result = check_robustness(write_skew, si)
        assert result.counterexample.allocation == si


@pytest.fixture
def chained_workload():
    # T2 and T4 both conflict with T1 but not with each other; T3 is
    # the only mixed-iso-graph node and links them (a-, then b-edge).
    return workload(
        "R1[x] W1[y]",
        "W2[x] R2[a]",
        "W3[a] R3[b]",
        "W4[b] R4[y]",
        "W5[y]",
    )


def _row(ctx, tid):
    """The kernel row of ``tid`` as ``T_1``, through the context."""
    return row_of(ctx, ctx.component_of[tid], ctx.bit[tid])


class _KernelPaths:
    """The bitset kernel's connecting chains for one ``T_1``, with the
    oracle's interface."""

    def __init__(self, ctx, t1_tid):
        self.ctx = ctx
        self.index = ctx  # the context is the conflict index
        self.t1_tid = t1_tid

    def connecting_path(self, tid_2, tid_m):
        return connecting_path(self.ctx, self.t1_tid, tid_2, tid_m)

    def reachable(self, tid_2, tid_m):
        row = _row(self.ctx, self.t1_tid)
        bit = self.index.bit
        return (_reach(row, 1 << bit[tid_2]) >> bit[tid_m]) & 1 == 1


@pytest.fixture(params=["oracle", "kernel"])
def paths(request):
    """Build the chain finder for ``T_1`` of a workload: the graph-backed
    oracle of :mod:`repro.core.reference` or the production kernel."""

    def build(wl, t1_tid):
        ctx = AnalysisContext(wl)
        if request.param == "oracle":
            return ReachabilityOracle(conflict_sets(wl)[t1_tid], wl[t1_tid])
        return _KernelPaths(ctx, t1_tid)

    return build


class TestConnectingPath:
    """Direct coverage of ``connecting_path`` — the witness-chain bridge
    of Theorem 3.2, otherwise only reached through ``_build_chain`` —
    on the oracle and on the kernel."""

    @pytest.fixture
    def chained(self, chained_workload, paths):
        return paths(chained_workload, 1)

    def test_same_tid_yields_empty_path(self, chained):
        assert chained.connecting_path(2, 2) == []

    def test_direct_conflict_yields_empty_path(self, paths):
        wl = workload("R1[x] W1[y]", "W2[x] R2[z]", "R3[y] W3[z]")
        finder = paths(wl, 1)
        assert finder.connecting_path(2, 3) == []

    def test_multi_hop_path_is_conflict_linked(self, chained):
        path = chained.connecting_path(2, 4)
        assert path == [3]
        # The returned intermediates genuinely bridge the pair: each
        # consecutive hop (2, *path, 4) is a real conflict.
        hops = [2, *path, 4]
        for left, right in zip(hops, hops[1:]):
            assert chained.index.conflict(left, right)

    def test_disjoint_pair_yields_none(self, chained):
        # T5 touches only y: both its conflict neighbours (T1, T4) are
        # candidates, not graph nodes, so it attaches to no component.
        assert chained.connecting_path(2, 5) is None
        assert not chained.reachable(2, 5)


class TestKernelCaching:
    def test_kernel_rows_cached(self, write_skew):
        ctx = AnalysisContext(write_skew)
        row = _row(ctx, 1)
        assert _row(ctx, 1) is row
        assert ctx.stats.kernel_row_builds == 1
        assert ctx.stats.kernel_row_hits == 1

    def test_kernel_counters_move_on_bitset_check(self, write_skew):
        ctx = AnalysisContext(write_skew)
        check_robustness(
            write_skew, Allocation.si(write_skew), method="bitset", context=ctx
        )
        assert ctx.stats.kernel_row_builds >= 1

    def test_components_method_builds_no_kernel(self, write_skew):
        ctx = AnalysisContext(write_skew)
        check_robustness(
            write_skew,
            Allocation.si(write_skew),
            method="components",
            context=ctx,
        )
        # One index, built with the context; the door builds nothing more.
        assert ctx.stats == ContextStats(index_builds=1)

    def test_bitset_check_builds_no_oracle(self, chained_workload):
        """A multi-hop witness's chain comes from the kernel row."""
        wl = chained_workload
        ctx = AnalysisContext(wl)
        result = check_robustness(wl, Allocation.si(wl), method="bitset", context=ctx)
        assert result.counterexample.spec.intermediate_tids == (3,)
        assert ctx.stats.kernel_row_builds >= 1


class TestComponentNumbering:
    def test_row_masks_are_as_wide_as_the_component(self):
        """A one-shot context numbers each component on its own."""
        wl = clustered_workload(
            components=4, per_component=4, objects_per_component=5, seed=3
        )
        ctx = AnalysisContext(wl)
        assert len(ctx.components()) >= 4
        for tid in wl.tids:
            limit = 1 << len(ctx.component_of[tid].tids)
            row = _row(ctx, tid)
            masks = [row.cands, row.rc_t2s, row.si_t2s, row.r_w1, row.w_r1]
            flags = [1 << bit for bit in range(len(row.nbrs)) if row.cands & 1 << bit]
            masks += [*row.comps, *row.atts, *(_reach(row, flag) for flag in flags)]
            masks += [mask for read in row.rc_reads + row.si_reads for mask in read[2:]]
            assert all(0 <= mask < limit for mask in masks), tid


class TestStats:
    def test_stats_as_dict_round_trip(self, write_skew):
        ctx = AnalysisContext(write_skew)
        is_robust(write_skew, Allocation.ssi(write_skew), context=ctx)
        stats = ctx.stats.as_dict()
        assert stats["checks"] == 1
        assert stats["index_builds"] == 1
        assert set(stats) == {
            "checks",
            "index_builds",
            "kernel_row_builds",
            "kernel_row_hits",
            "pair_builds",
            "pair_hits",
        }
