"""The allocation problem (Sections 4 and 5).

Algorithm 2 computes the unique optimal robust allocation over
{RC, SI, SSI}: starting from ``A_SSI`` (trivially robust, since SSI alone
admits only serializable schedules), each transaction is refined to the
lowest level that keeps the allocation robust.  Correctness rests on
Proposition 4.1 (robustness propagates upward, and lower levels proven
robust elsewhere can be adopted transaction-wise) and Proposition 4.2
(uniqueness of the optimum).

For the Oracle class {RC, SI} (Section 5) no serializable level exists, so
a robust allocation may not exist.  Proposition 5.4 reduces existence to
robustness against ``A_SI``; when it holds, the optimal {RC, SI} allocation
is computed by the same refinement starting from ``A_SI`` (Theorem 5.5).

Every entry point accepts an optional
:class:`~repro.core.context.AnalysisContext`, the workload's conflict
index, so it and the kernel rows cached on it are built exactly once
across the ``O(|T| * levels)`` robustness checks a full run issues.

Every downgrade lowers one transaction ``t`` of a robust allocation,
so its scan visits only the triples through ``t`` (the delta lemma of
:func:`repro.core.robustness.check_robustness_delta`), with the full
scan's verdict, and it asks only whether a witness exists: no chain is
built for a verdict the refinement reads as one bit.  One kernel scan
decides every candidate level of ``t`` at once, since outside ``t``'s
own row its level counts only through the SSI mask.  Every scan runs
on the bitset kernel; the reference Algorithm 2 is
:func:`repro.core.reference.optimal_allocation`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..observability import current_tracer
from .context import AnalysisContext, Component, _resolve
from .isolation import (
    Allocation,
    IsolationLevel,
    ORACLE_LEVELS,
    POSTGRES_LEVELS,
)
from .kernel import level_list
from .robustness import _first_witness, _lowest_robust, _validate, is_robust
from .workload import Workload


def _normalized_levels(
    levels: Iterable[IsolationLevel],
) -> Tuple[IsolationLevel, ...]:
    """The class of levels sorted by preference, validated non-empty."""
    unique = sorted(set(levels))
    if not unique:
        raise ValueError("the class of isolation levels must not be empty")
    return tuple(unique)


def _refine(
    context: AnalysisContext,
    start: Allocation,
    ordered: Sequence[IsolationLevel],
    components: Iterable[Component],
    floors: Optional[Dict[int, IsolationLevel]] = None,
) -> Allocation:
    """Algorithm 2's refinement of ``components``, below ``start``.

    Each component is refined on its own level list in bit order plus
    its SSI mask (:func:`~repro.core.kernel.level_list`), its members in
    ascending order: an adopted lowering sets one entry and clears one
    bit of the mask.  A member's candidate levels are those of
    ``ordered`` from its floor up to, not including, its current level,
    and one kernel scan (:func:`~repro.core.robustness._lowest_robust`)
    over the member and its conflict neighbours (``nbrs[bit] | 1 <<
    bit``) adopts the lowest robust one, counting on ``context`` one
    check per candidate it decides.  The per-transaction and
    per-decision spans are opened only under a recording tracer.
    Returns ``start`` with the refined levels.
    """
    ranks = [level.rank for level in ordered]
    tracer = current_tracer()

    def lower(component, current, bit: int, tid: int, probe_ssi: int) -> bool:
        """Adopt the lowest level that keeps the allocation robust."""
        floor = floors.get(tid) if floors is not None else None
        candidates = ordered[
            0 if floor is None else bisect_left(ranks, floor.rank) :
            bisect_left(ranks, current[bit].rank)
        ]
        if not candidates:
            return False
        if tracer.recording:
            before = context.stats.checks
            with tracer.span(
                "allocation.probe",
                tid=tid,
                levels=[level.name for level in candidates],
            ) as probe_span:
                level = _lowest_robust(
                    context, component, current, probe_ssi, bit, candidates
                )
                probe_span.set(checks=context.stats.checks - before)
        else:
            level = _lowest_robust(
                context, component, current, probe_ssi, bit, candidates
            )
        if level is None:
            return False
        current[bit] = level
        return True

    refined = dict(start.items())
    with tracer.span("allocation.refine", transactions=len(refined)):
        for component in components:
            tids = component.tids
            current, ssi = level_list(start, tids)
            for bit, tid in enumerate(tids):
                probe_ssi = ssi & ~(1 << bit)  # a lowered level is below SSI
                if tracer.recording:
                    with tracer.span("allocation.refine_txn", tid=tid) as txn_span:
                        lowered = lower(component, current, bit, tid, probe_ssi)
                        txn_span.set(level=current[bit].name)
                else:
                    lowered = lower(component, current, bit, tid, probe_ssi)
                if lowered:
                    ssi = probe_ssi
            refined.update(zip(tids, current))
    return Allocation(refined)


def refine_allocation(
    workload: Workload,
    start: Allocation,
    levels: Sequence[IsolationLevel],
    context: Optional[AnalysisContext] = None,
    floors: Optional[Dict[int, IsolationLevel]] = None,
) -> Allocation:
    """Refine a robust allocation to the optimum below it (Algorithm 2 core).

    For each transaction in turn, the lowest level of ``levels`` keeping
    the allocation robust is adopted.  By Proposition 4.1(2) the result is
    independent of the iteration order and equals the unique optimal robust
    allocation below ``start`` (the test suite checks order invariance).

    Each step lowers one transaction of the current, robust allocation,
    so it scans only the triples through that transaction and asks only
    whether a witness exists: no chain and no schedule are built.  One
    scan decides every candidate level of the transaction and counts
    one check per level it decides, the number of per-level probes it
    answers for.  One :class:`Allocation` is built when the loop ends.

    Args:
        workload: the set of transactions.
        start: a *robust* allocation to refine (not re-verified here).
        levels: the class of levels, in any order.
        context: the workload's
            :class:`~repro.core.context.AnalysisContext` (built fresh
            when omitted).
        floors: optional per-transaction lower bounds — probe levels
            below a transaction's floor are skipped (the incremental
            manager passes the previous optimum, which the new optimum
            dominates pointwise).  A pure acceleration, never changing
            the result.
    """
    ordered = _normalized_levels(levels)
    context = _resolve(workload, context)
    _validate(workload, start)
    return _refine(context, start, ordered, context.components(), floors)


def optimal_allocation(
    workload: Workload,
    levels: Sequence[IsolationLevel] = POSTGRES_LEVELS,
    context: Optional[AnalysisContext] = None,
) -> Optional[Allocation]:
    """The unique optimal robust allocation over ``levels``, if one exists.

    For {RC, SI, SSI} (the default) an optimal robust allocation always
    exists and this is Algorithm 2 (Theorem 4.3).  For {RC, SI} the result
    is ``None`` when the workload is not robustly allocatable
    (Proposition 5.4 / Theorem 5.5).

    The :class:`~repro.core.context.AnalysisContext` (the caller's, or
    a private one) is the conflict index, built exactly once regardless
    of how many robustness checks the refinement issues.

    Examples:
        >>> from repro.core.workload import workload
        >>> w = workload("R1[x] W1[y]", "R2[y] W2[x]")  # write skew
        >>> str(optimal_allocation(w))
        'T1:SSI, T2:SSI'
        >>> str(optimal_allocation(workload("R1[a] W1[b]", "R2[c] W2[d]")))
        'T1:RC, T2:RC'
    """
    ordered = _normalized_levels(levels)
    context = _resolve(workload, context)
    top = ordered[-1]
    start = Allocation.uniform(workload, top)
    with current_tracer().span(
        "allocation.optimal",
        transactions=len(workload),
        levels=[level.name for level in ordered],
    ):
        if top is not IsolationLevel.SSI and (
            _first_witness(context, start) is not None
        ):
            return None
        return _refine(context, start, ordered, context.components())


def is_robustly_allocatable(
    workload: Workload,
    levels: Sequence[IsolationLevel] = ORACLE_LEVELS,
    context: Optional[AnalysisContext] = None,
) -> bool:
    """Whether some allocation over ``levels`` is robust (Definition 5.3).

    For any class whose top level is SSI this is trivially true; for
    {RC, SI} it reduces to robustness against ``A_SI`` (Proposition 5.4).
    """
    ordered = _normalized_levels(levels)
    top = ordered[-1]
    if top is IsolationLevel.SSI:
        return True
    return is_robust(workload, Allocation.uniform(workload, top), context=context)


def upgrade_to_robust(
    workload: Workload,
    allocation: Allocation,
    levels: Sequence[IsolationLevel] = POSTGRES_LEVELS,
    context: Optional[AnalysisContext] = None,
) -> Optional[Allocation]:
    """The least robust allocation pointwise above ``allocation``, if any.

    Practical companion to Algorithm 2: given a desired (possibly
    non-robust) allocation, raise levels as little as possible until the
    workload is robust.  Returns ``None`` only when no robust allocation
    over ``levels`` exists at all (i.e. :func:`optimal_allocation` returns
    ``None``; impossible when SSI is in the class).

    The result is the pointwise maximum of ``allocation`` and the optimal
    robust allocation; minimality among robust allocations above
    ``allocation`` follows from Proposition 4.1(2).  The maximum itself is
    robust by Proposition 4.1(1) — robustness propagates upward from the
    optimum — so, unlike earlier revisions, this function never returns
    ``None`` once an optimum exists (a debug assertion documents the
    invariant instead of a dead error branch).
    """
    ctx = _resolve(workload, context)
    optimum = optimal_allocation(workload, levels, context=ctx)
    if optimum is None:
        return None
    lifted = {
        tid: max(allocation[tid], optimum[tid]) for tid in workload.tids
    }
    candidate = Allocation(lifted)
    # By Proposition 4.1(1) any allocation pointwise above a robust one is
    # robust; ``candidate >= optimum``, so a failure here can only mean a
    # bug in the robustness engine, never a caller-visible condition.
    assert is_robust(workload, candidate, context=ctx), (
        "pointwise max of a robust optimum must be robust (Proposition 4.1)"
    )
    return candidate
