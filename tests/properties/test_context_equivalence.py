"""Property tests: the context-backed engine equals the seed implementations.

Three implementations must agree everywhere:

* the ``components`` engine of :mod:`repro.core.reference` — cached
  reachability;
* its ``paper`` engine — verbatim Algorithm 1;
* :func:`~repro.core.robustness.check_robustness` driven through a
  shared :class:`~repro.core.context.AnalysisContext` (cached
  structure).

And :func:`~repro.core.allocation.refine_allocation` must return the
identical allocation as the seed refinement loop (a fresh conflict
index per robustness check), counting one check per probe the seed loop
issues.  Its existence scans, scoped to the lowered transaction, must
match a refinement whose probes scan every triple — optimum and
counters alike.  Its one scan per transaction must decide what one
scoped probe per candidate level decides, on the same rows.
"""

from contextlib import nullcontext

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import strategies as sts
from repro.core import reference
from repro.core.allocation import optimal_allocation, refine_allocation
from repro.core.context import AnalysisContext
from repro.core.isolation import (
    Allocation,
    IsolationLevel,
    ORACLE_LEVELS,
    POSTGRES_LEVELS,
)
from repro.core.kernel import level_list
from repro.core.robustness import (
    _first_witness,
    _lowest_robust,
    _probe,
    check_robustness,
    is_robust,
)
from repro.core.split_schedule import is_valid_split_schedule
from repro.observability import Tracer, use_tracer
from repro.workloads.generator import random_workload


@st.composite
def workload_and_allocation(draw):
    wl = draw(sts.workloads(min_transactions=1, max_transactions=4))
    levels = {
        tid: draw(st.sampled_from(list(IsolationLevel))) for tid in wl.tids
    }
    return wl, Allocation(levels)


@given(workload_and_allocation())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_engines_agree(pair):
    """components ≡ paper ≡ context-backed on random (workload, allocation)."""
    wl, alloc = pair
    ctx = AnalysisContext(wl)
    components = reference.first_witness_spec(wl, alloc, "components")
    paper = reference.first_witness_spec(wl, alloc, "paper")
    cached = check_robustness(wl, alloc, context=ctx)
    assert (components is None) == (paper is None) == cached.robust
    cached_spec = None if cached.robust else cached.counterexample.spec
    for spec in (components, paper, cached_spec):
        if spec is not None:
            # Every engine's witness is a genuine split schedule.
            assert is_valid_split_schedule(spec, wl, alloc)


@given(workload_and_allocation())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_shared_context_is_stateless_across_allocations(pair):
    """Probing other allocations through the context never changes answers."""
    wl, alloc = pair
    ctx = AnalysisContext(wl)
    # Warm the caches with unrelated allocations.
    for level in IsolationLevel:
        check_robustness(wl, Allocation.uniform(wl, level), context=ctx)
    fresh = check_robustness(wl, alloc)
    via_ctx = check_robustness(wl, alloc, context=ctx)
    assert fresh.robust == via_ctx.robust


def _seed_refine(workload, start, levels, engine="components", probes=None):
    """The pre-context refinement loop, verbatim (no caching).

    Appends each probed candidate to ``probes`` when given.
    """
    ordered = tuple(sorted(set(levels)))
    current = start
    for tid in workload.tids:
        for level in ordered:
            if level >= current[tid]:
                break
            candidate = current.with_level(tid, level)
            if probes is not None:
                probes.append(candidate)
            if reference.first_witness_spec(workload, candidate, engine) is None:
                current = candidate
                break
    return current


def _full_scan_refine(workload, start, levels, ctx):
    """The refinement with unscoped probes.

    Every probe asks whether a scan of every triple of every ``T_1``
    finds a witness — what the refinement did before its probes were
    scoped to the lowered transaction.
    """
    ordered = tuple(sorted(set(levels)))
    current = start
    for tid in workload.tids:
        for level in ordered:
            if level >= current[tid]:
                break
            candidate = current.with_level(tid, level)
            if _first_witness(ctx, candidate) is None:
                current = candidate
                break
    return current


@st.composite
def mid_sized_workloads(draw):
    """8-14 transactions, dense to sparse: large enough for the scope to prune."""
    size = draw(st.integers(min_value=8, max_value=14))
    return random_workload(
        transactions=size,
        objects=draw(st.integers(min_value=size, max_value=3 * size)),
        min_ops=2,
        max_ops=4,
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_warm_started_refinement_matches_seed(wl):
    """refine_allocation through a shared context ≡ the seed refinement."""
    start = Allocation.ssi(wl)
    ctx = AnalysisContext(wl)
    warm = refine_allocation(wl, start, POSTGRES_LEVELS, context=ctx)
    seed = _seed_refine(wl, start, POSTGRES_LEVELS)
    assert warm == seed


@given(sts.workloads(min_transactions=1, max_transactions=4))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_context_backed_optimum_matches_seed(wl):
    """optimal_allocation through one context ≡ seed Algorithm 2."""
    ctx = AnalysisContext(wl)
    assert optimal_allocation(wl, context=ctx) == _seed_refine(
        wl, Allocation.ssi(wl), POSTGRES_LEVELS
    )


@given(mid_sized_workloads())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scoped_probes_match_full_scan_refinement(wl):
    """Scoped probes ≡ full-scan existence probes: optimum and checks."""
    for levels in (POSTGRES_LEVELS, ORACLE_LEVELS):
        start = Allocation.uniform(wl, max(levels))
        if not is_robust(wl, start):
            continue  # {RC, SI} without a robust allocation: nothing to refine
        scoped_ctx, full_ctx = AnalysisContext(wl), AnalysisContext(wl)
        scoped = refine_allocation(wl, start, levels, context=scoped_ctx)
        full = _full_scan_refine(wl, start, levels, full_ctx)
        assert scoped == full
        assert scoped_ctx.stats.checks == full_ctx.stats.checks


@given(
    st.one_of(
        sts.workloads(min_transactions=1, max_transactions=5),
        mid_sized_workloads(),
    )
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_checks_count_the_seed_refinement_probes(wl):
    """``checks`` after a refinement is the seed loop's probe count.

    Every candidate level a scan decides counts one check.
    """
    for levels in (POSTGRES_LEVELS, ORACLE_LEVELS):
        start = Allocation.uniform(wl, max(levels))
        if not is_robust(wl, start):
            continue
        probes = []
        expected = _seed_refine(wl, start, levels, probes=probes)
        ctx = AnalysisContext(wl)
        assert refine_allocation(wl, start, levels, context=ctx) == expected
        assert ctx.stats.checks == len(probes)


def _probe_each_level(ctx, component, levels, ssi, bit, candidates):
    """The per-level loop the one scan replaces, as a reference.

    One delta-scoped :func:`_probe` per candidate level of the member at
    ``bit``, ascending, stopping at the first robust level.
    """
    levels = list(levels)
    flag = 1 << bit
    for level in candidates:
        levels[bit] = level
        if not _probe(ctx, component, levels, ssi, component.nbrs[bit] | flag, flag):
            return level
    return None


@st.composite
def level_decisions(draw):
    """One transaction's decision: a workload, a level list over a class
    ({RC, SI, SSI} or {RC, SI}), a member ``t`` above the bottom level,
    and its candidates, from a manager-style floor (none, or a level
    below ``t``'s) up to its level."""
    wl = draw(
        st.one_of(
            sts.workloads(min_transactions=1, max_transactions=5),
            mid_sized_workloads(),
        )
    )
    ordered = tuple(sorted(draw(st.sampled_from([POSTGRES_LEVELS, ORACLE_LEVELS]))))
    levels = {tid: draw(st.sampled_from(ordered)) for tid in wl.tids}
    tid = draw(st.sampled_from(wl.tids))
    top = draw(st.integers(min_value=1, max_value=len(ordered) - 1))
    levels[tid] = ordered[top]
    floor = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=top - 1)))
    candidates = ordered[floor or 0 : top]
    return wl, Allocation(levels), tid, candidates


@given(level_decisions(), st.booleans())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_scan_decides_as_the_per_level_probes(case, traced):
    """The one-scan decision ≡ one scoped probe per candidate level.

    Same adopted level and the same ``checks`` (one per candidate level
    decided), the same kernel rows built, and no more rows fetched —
    untraced, and under a recording tracer, whose path scans ``T_1`` by
    ``T_1``.
    """
    wl, allocation, tid, candidates = case
    outcomes = []
    for decide in (_probe_each_level, _lowest_robust):
        ctx = AnalysisContext(wl)
        component, bit = ctx.component_of[tid], ctx.bit[tid]
        levels, ssi = level_list(allocation, component.tids)
        with use_tracer(Tracer()) if traced else nullcontext():
            level = decide(ctx, component, levels, ssi & ~(1 << bit), bit, candidates)
        stats = ctx.stats
        outcomes.append(
            (
                level,
                stats.checks,
                [row is not None for row in component.rows],
                stats.kernel_row_builds,
                stats.kernel_row_builds + stats.kernel_row_hits,
            )
        )
    (want, want_checks, want_rows, want_builds, want_fetches), got = outcomes
    level, checks, rows, builds, fetches = got
    assert level is want
    assert checks == want_checks
    assert rows == want_rows and builds == want_builds
    assert fetches <= want_fetches
