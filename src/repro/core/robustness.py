"""Deciding robustness against an allocation (Algorithm 1, Theorem 3.3).

A workload ``T`` is robust against an allocation ``A`` iff no multiversion
split schedule for ``T`` and ``A`` exists (Theorem 3.2).  Algorithm 1
searches for one without enumerating quadruple sequences: it iterates over
candidate triples ``(T_1, T_2, T_m)``, checks reachability from ``T_2`` to
``T_m`` through transactions that do not conflict with ``T_1`` (the
*mixed-iso-graph*), and then scans the operation choices
``b_1, a_1, a_2, b_m`` against the side conditions of Definition 3.1.

The scan runs on the bitset kernel of :mod:`repro.core.kernel`: every
condition of Definition 3.1 is evaluated for all candidates at once, as
intersections of tid-bit masks, and an Algorithm 2 probe only asks
whether a witness exists (:func:`_probe`, on one component's level
list).
Two independent reference engines, the graph-backed ``components`` and
the verbatim ``paper`` loops, live in :mod:`repro.core.reference` as
test oracles: they return the same verdicts, witness specs and
enumeration order (asserted by the
``tests/properties/test_kernel_equivalence.py`` property suite).

All allocation-independent structure hangs off
:class:`~repro.core.context.AnalysisContext`, the workload's conflict
index, with the kernel rows and conflicting-pair tables cached on its
components.  Pass an existing context to amortize it across many
checks of the same workload (Algorithm 2 issues ``O(|T| * levels)`` of
them).

:func:`check_robustness_delta` checks an allocation one step below a
robust one: by its delta lemma every witness runs through the changed
transaction, so only those triples are scanned, an ``O(|T|^2)`` sweep
instead of ``O(|T|^3)``.  Every downgrade probe of Algorithm 2 runs this
scoped scan and asks only whether it finds a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..observability import current_tracer
from .conflicts import ConflictQuadruple
from .context import AnalysisContext, Component, _resolve
from .isolation import Allocation, IsolationLevel
from .kernel import (
    ScanStart,
    connecting_path,
    first_scan_pair,
    has_witness,
    iter_witness_triples,
)
from .operations import Operation
from .schedules import MVSchedule, canonical_schedule
from .split_schedule import SplitScheduleSpec, materialize, operation_order
from .transactions import Transaction
from .workload import Workload, WorkloadError

__all__ = [
    "Counterexample",
    "RobustnessResult",
    "check_robustness",
    "check_robustness_delta",
    "enumerate_counterexamples",
    "first_witness_spec",
    "is_robust",
]


@dataclass(frozen=True)
class Counterexample:
    """A witness of non-robustness.

    Attributes:
        spec: the quadruple chain ``C`` of the multiversion split schedule.
        schedule: the materialized schedule — allowed under the allocation
            and not conflict serializable.
        allocation: the allocation the witness was found against.
    """

    spec: SplitScheduleSpec
    schedule: MVSchedule
    allocation: Optional[Allocation] = None

    def __str__(self) -> str:
        return f"split schedule based on {self.spec}"


@dataclass(frozen=True)
class RobustnessResult:
    """The outcome of a robustness check."""

    robust: bool
    counterexample: Optional[Counterexample] = None

    def __bool__(self) -> bool:
        return self.robust


def _build_chain(
    context: AnalysisContext,
    t1: Transaction,
    t2: Transaction,
    tm: Transaction,
    ops: Tuple[Operation, Operation, Operation, Operation],
    path: Optional[List[int]],
) -> SplitScheduleSpec:
    """Assemble the quadruple chain ``C`` for a discovered counterexample.

    ``path`` is the connecting chain ``T_3 ... T_{m-1}`` from the
    kernel row (:func:`~repro.core.kernel.connecting_path`).
    """
    b1, a2, bm, a1 = ops
    chain: List[ConflictQuadruple] = [ConflictQuadruple(t1.tid, b1, a2, t2.tid)]
    if t2.tid != tm.tid:
        assert path is not None
        hops = [t2.tid, *path, tm.tid]
        for left, right in zip(hops, hops[1:]):
            b, a = context.conflicting_pairs(left, right)[0]
            chain.append(ConflictQuadruple(left, b, a, right))
    chain.append(ConflictQuadruple(tm.tid, bm, a1, t1.tid))
    return SplitScheduleSpec(tuple(chain))


def _scan_t1(
    context: AnalysisContext,
    allocation: Allocation,
    t1: Transaction,
    ssi_masks: Dict[Component, int],
    delta_tid: Optional[int] = None,
    start: Optional[ScanStart] = None,
) -> Iterator[SplitScheduleSpec]:
    """Algorithm 1's inner loops for a fixed split candidate ``T_1``.

    Yields one :class:`~repro.core.split_schedule.SplitScheduleSpec` per
    problematic triple ``(T_1, T_2, T_m)``, in the deterministic
    ``(T_2, T_m)`` candidate order.  This generator is the single source
    of truth for the per-``T_1`` search that builds witnesses:
    :func:`check_robustness` takes its first element,
    :func:`enumerate_counterexamples` drains it, and
    :func:`check_robustness_delta` runs it with ``delta_tid`` set.  An
    Algorithm 2 probe asks the kernel for existence only
    (:func:`_probe`).

    With a ``delta_tid`` other than ``T_1`` only the triples having it as
    ``T_2`` or ``T_m`` are visited: the subsequence of the full output
    through the changed transaction, which is all of it when
    ``allocation`` is one step below a robust one (the delta lemma of
    :func:`check_robustness_delta`).  Each witness's connecting chain
    comes from the kernel row the scan read.  ``ssi_masks`` is the
    calling check's and ``start`` the scan's first pair when the caller
    has it (:func:`~repro.core.kernel.iter_witness_triples`).
    """
    for t2, tm, ops in iter_witness_triples(
        context, allocation, t1, ssi_masks, delta_tid, start
    ):
        path = connecting_path(context, t1.tid, t2.tid, tm.tid)
        yield _build_chain(context, t1, t2, tm, ops, path)


def _validate(workload: Workload, allocation: Allocation) -> None:
    if not allocation.covers(workload):
        raise WorkloadError("allocation does not cover the workload")


def _result(
    spec: Optional[SplitScheduleSpec], workload: Workload, allocation: Allocation
) -> RobustnessResult:
    """The verdict on ``spec``: robust when ``None``, otherwise its
    counterexample, materialized against ``workload`` (Theorem 3.2)."""
    if spec is None:
        return RobustnessResult(True)
    schedule = materialize(spec, workload, allocation)
    return RobustnessResult(False, Counterexample(spec, schedule, allocation))


def check_robustness(
    workload: Workload,
    allocation: Allocation,
    method: str = "bitset",
    context: Optional[AnalysisContext] = None,
) -> RobustnessResult:
    """Decide robustness of ``workload`` against ``allocation`` (Algorithm 1).

    Returns a :class:`RobustnessResult`; when not robust, the result carries
    a :class:`Counterexample` whose materialized schedule is allowed under
    the allocation and not conflict serializable (Theorem 3.2).  The check
    runs in time polynomial in the workload size (Theorem 3.3).

    Args:
        workload: the set of transactions.
        allocation: an isolation level for every transaction.
        method: ``"bitset"`` (the default) runs the kernel; ``"components"``
            and ``"paper"`` take the spec from :mod:`repro.core.reference`
            and build nothing on ``context``.  This door serves one caller
            outside the tests, the optimality proof of ``bench/``'s
            allocate workloads, and goes once that proof calls the
            reference module itself.
        context: the workload's
            :class:`~repro.core.context.AnalysisContext` (built fresh
            when omitted); sharing one across checks amortizes the
            allocation-independent structure.

    Examples:
        >>> from repro.core.workload import workload
        >>> from repro.core.isolation import Allocation
        >>> skew = workload("R1[x] W1[y]", "R2[y] W2[x]")
        >>> check_robustness(skew, Allocation.si(skew)).robust
        False
        >>> check_robustness(skew, Allocation.ssi(skew)).robust
        True
    """
    if method == "bitset":
        spec = first_witness_spec(workload, allocation, context)
    elif method in ("components", "paper"):
        if context is not None:
            context.ensure(workload)
        from . import reference

        spec = reference.first_witness_spec(workload, allocation, method)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _result(spec, workload, allocation)


def _check_span(tracer, transactions: int, delta_tid: Optional[int]):
    """A check's span: ``robustness.check``, or ``robustness.check_delta``
    with the ``delta_tid`` it is scoped to."""
    if delta_tid is None:
        return tracer.span("robustness.check", transactions=transactions)
    return tracer.span(
        "robustness.check_delta", transactions=transactions, delta_tid=delta_tid
    )


def _first_witness(
    context: AnalysisContext,
    allocation: Allocation,
    delta_tid: Optional[int] = None,
) -> Optional[SplitScheduleSpec]:
    """Algorithm 1's ascending-``T_1`` scan; counts one check.

    The witness returned has the smallest ``T_1`` of the context's
    transactions.  With ``delta_tid`` only the triples through it are
    scanned (:func:`check_robustness_delta`): ``T_1`` ranges over
    ``delta_tid`` and its conflict neighbours, and :func:`_scan_t1`
    skips the other triples.  One ``robustness.scan_t1`` span per
    ``T_1`` scanned; a ``T_1`` starts a witness generator only once
    :func:`~repro.core.kernel.first_scan_pair` has found it a pair.  The
    incremental manager's whole-workload check is this scan on its warm
    context.
    """
    context.record_check()
    transactions = context.transactions
    if delta_tid is None:
        t1s: Sequence[int] = sorted(transactions)
    else:
        component = context.component_of[delta_tid]
        bit = context.bit[delta_tid]
        t1s = component.members(component.nbrs[bit] | 1 << bit)
    tracer = current_tracer()
    ssi_masks: Dict[Component, int] = {}
    spec = None
    with _check_span(tracer, len(transactions), delta_tid) as check_span:
        for tid in t1s:
            with tracer.span("robustness.scan_t1", t1=tid):
                t1 = transactions[tid]
                start = first_scan_pair(context, allocation, t1, ssi_masks, delta_tid)
                if start is not None:
                    spec = next(
                        _scan_t1(context, allocation, t1, ssi_masks, delta_tid, start)
                    )
            if spec is not None:
                break
        check_span.set(robust=spec is None)
    return spec


def _probe(
    context: AnalysisContext,
    component: Component,
    levels: Sequence[IsolationLevel],
    ssi: int,
    t1s: int,
    scoped: int,
) -> bool:
    """Whether the kernel scan finds a witness against ``levels``.

    The Algorithm 2 probe inside one conflict ``component``: the
    allocation is its level list in bit order and its SSI mask, as
    :func:`~repro.core.allocation.refine_allocation` keeps them, ``t1s``
    the mask of the split candidates ``T_1`` and ``scoped`` the flag of
    the lowered member (0 for a scan of every pair).  The scan is one
    :func:`~repro.core.kernel.has_witness` call: over the component's
    members, or for a lowered member only it and its conflict
    neighbours.  It counts one check on ``context``, and it gives the
    verdict :func:`_first_witness` gives on the component, without
    resolving operations or building a chain.  The check's span and its
    per-``T_1`` spans are opened only under a recording tracer: a probe
    is too short to pay for them otherwise.
    """
    context.record_check()
    tracer = current_tracer()
    if not tracer.recording:
        return has_witness(context, component, levels, ssi, t1s, scoped)
    tids = component.tids
    delta_tid = tids[scoped.bit_length() - 1] if scoped else None
    found = False
    with _check_span(tracer, len(context.transactions), delta_tid) as check_span:
        while t1s and not found:
            low = t1s & -t1s
            t1s ^= low
            with tracer.span("robustness.scan_t1", t1=tids[low.bit_length() - 1]):
                found = has_witness(context, component, levels, ssi, low, scoped)
        check_span.set(robust=not found)
    return found


def check_robustness_delta(
    workload: Workload,
    allocation: Allocation,
    delta_tid: int,
    context: Optional[AnalysisContext] = None,
) -> RobustnessResult:
    """Robustness of an allocation one step away from a robust one.

    Precondition: some allocation that is *robust* for ``workload``
    agrees with ``allocation`` everywhere except possibly at
    ``delta_tid`` (callers typically lower one transaction of a robust
    allocation, as Algorithm 2's refinement does).  Under that
    precondition the verdict and the counterexample equal
    :func:`check_robustness`'s, but the scan only visits triples
    involving ``delta_tid`` — ``O(|T|^2)`` instead of ``O(|T|^3)``
    triples.

    Why this is sound (the *delta lemma*): every condition of
    Definition 3.1 that mentions isolation levels — (2)/(3) via the RC
    split, (5)'s RC escape, and the SSI conditions (6)-(8) — mentions
    only the levels of ``T_1``, ``T_2`` and ``T_m``; the intermediate
    transactions ``T_3 ... T_{m-1}`` contribute no level conditions.  A
    witness triple avoiding ``delta_tid`` therefore satisfies the exact
    same conditions under the robust base allocation, contradicting
    Theorem 3.2 for the base.  Hence every witness involves
    ``delta_tid`` in one of the three roles, and ``T_1`` ranges over
    ``delta_tid`` and its conflict neighbours only (``T_2``/``T_m`` must
    conflict with ``T_1``).  The full scan's first witness therefore
    already runs through ``delta_tid``, and the scoped scan returns it.

    Examples:
        >>> from repro.core.workload import workload
        >>> from repro.core.isolation import Allocation
        >>> skew = workload("R1[x] W1[y]", "R2[y] W2[x]")
        >>> base = Allocation.ssi(skew)          # robust
        >>> check_robustness_delta(skew, base.with_level(1, "RC"), 1).robust
        False
        >>> private = workload("R1[x] W1[y]", "R2[a] W2[b]")
        >>> lowered = Allocation.ssi(private).with_level(2, "RC")
        >>> check_robustness_delta(private, lowered, 2).robust
        True
    """
    _validate(workload, allocation)
    if delta_tid not in workload:
        raise WorkloadError(f"no transaction with id {delta_tid}")
    context = _resolve(workload, context)
    spec = _first_witness(context, allocation, delta_tid)
    return _result(spec, workload, allocation)


def first_witness_spec(
    workload: Workload,
    allocation: Allocation,
    context: Optional[AnalysisContext] = None,
) -> Optional[SplitScheduleSpec]:
    """The first counterexample spec, or ``None`` when robust — no schedule.

    The lean core of :func:`check_robustness`: identical scan, identical
    verdict, identical spec, but Theorem 3.2's schedule materialization
    is skipped entirely.  This is what the boolean callers, such as
    :func:`is_robust`, use: they never read the schedule, and
    materialization dominates the cost of a failed check on mid-sized
    workloads.  ``context`` is as in :func:`check_robustness`.
    """
    context = _resolve(workload, context)
    _validate(workload, allocation)
    return _first_witness(context, allocation)


def is_robust(
    workload: Workload,
    allocation: Allocation,
    context: Optional[AnalysisContext] = None,
) -> bool:
    """Boolean shorthand for :func:`check_robustness` (Algorithm 1).

    Runs the lean :func:`first_witness_spec` scan — no counterexample
    schedule is built for a verdict the caller discards.

    Examples:
        >>> from repro.core.workload import workload
        >>> from repro.core.isolation import Allocation
        >>> w = workload("R1[x] W1[y]", "R2[y] W2[x]")
        >>> is_robust(w, Allocation.si(w)), is_robust(w, Allocation.ssi(w))
        (False, True)
    """
    return first_witness_spec(workload, allocation, context) is None


def _spec_to_counterexample(
    spec: SplitScheduleSpec,
    workload: Workload,
    allocation: Allocation,
    materialize_schedules: bool,
) -> Counterexample:
    """Build the :class:`Counterexample` for a discovered spec."""
    if materialize_schedules:
        schedule = materialize(spec, workload, allocation)
    else:
        schedule = canonical_schedule(
            workload,
            operation_order(spec, workload),
            allocation,
        )
    return Counterexample(spec, schedule, allocation)


def enumerate_counterexamples(
    workload: Workload,
    allocation: Allocation,
    materialize_schedules: bool = True,
    context: Optional[AnalysisContext] = None,
) -> Iterable[Counterexample]:
    """Yield one counterexample per problematic triple ``(T_1, T_2, T_m)``.

    Where :func:`check_robustness` stops at the first witness, this
    generator surveys the whole space of Algorithm 1's outer loop — one
    witness per distinct triple — which is what blame analysis
    (:func:`repro.analysis.blame.blame_report`) aggregates.  The number of
    yielded counterexamples is at most ``|T|^3``.

    The enumeration order is deterministic: ascending ``T_1`` id, then
    the nested ``(T_2, T_m)`` candidate order of Algorithm 1 (asserted
    by ``tests/core/test_robustness.py`` and the property suite).  The
    survey counts one check.

    Args:
        workload: the set of transactions.
        allocation: an isolation level for every transaction.
        materialize_schedules: build (and re-verify) the concrete schedule
            for each witness; disable for cheap surveys of large spaces.
        context: as in :func:`check_robustness`.
    """
    context = _resolve(workload, context)
    _validate(workload, allocation)
    context.record_check()
    tracer = current_tracer()
    ssi_masks: Dict[Component, int] = {}
    for t1 in workload:
        if tracer.recording:
            # Drain the scan inside its span so the recorded duration is
            # scan time, not consumer time between yields.  The yielded
            # sequence is identical either way.
            with tracer.span("robustness.scan_t1", t1=t1.tid, survey=True):
                specs = list(_scan_t1(context, allocation, t1, ssi_masks))
        else:
            specs = _scan_t1(context, allocation, t1, ssi_masks)
        for spec in specs:
            yield _spec_to_counterexample(
                spec, workload, allocation, materialize_schedules
            )
