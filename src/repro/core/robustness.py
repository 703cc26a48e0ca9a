"""Deciding robustness against an allocation (Algorithm 1, Theorem 3.3).

A workload ``T`` is robust against an allocation ``A`` iff no multiversion
split schedule for ``T`` and ``A`` exists (Theorem 3.2).  Algorithm 1
searches for one without enumerating quadruple sequences: it iterates over
candidate triples ``(T_1, T_2, T_m)``, checks reachability from ``T_2`` to
``T_m`` through transactions that do not conflict with ``T_1`` (the
*mixed-iso-graph*), and then scans the operation choices
``b_1, a_1, a_2, b_m`` against the side conditions of Definition 3.1.

Three interchangeable engines are provided:

* ``method="bitset"`` (default) — the bitset kernel of
  :mod:`repro.core.kernel`: every condition of Definition 3.1 is
  evaluated for all candidates at once, as intersections of tid-bit
  masks, and an Algorithm 2 probe only asks whether a witness exists
  (:func:`_probe`, on a level list; :func:`_witness_exists` for a
  caller holding an :class:`Allocation`).
* ``method="components"`` — computes the mixed-iso-graph of each
  ``T_1`` once and answers reachability questions via connected components.
  Sound because ``T_2`` and ``T_m`` must conflict with ``T_1`` for the
  inner conditions to ever hold, hence are never nodes of the graph.
  Kept as the readable reference engine.
* ``method="paper"`` — the verbatim Algorithm 1 loop structure (transitive
  closure recomputed per triple), kept as the reference implementation and
  for the ablation benchmark.

All three return bit-identical results — the same verdicts, the same
witness specs, the same enumeration order (asserted by the test suite
and the ``tests/properties/test_kernel_equivalence.py`` property suite).

Every public entry point analyzes per connected component of the
conflict graph (:mod:`repro.core.sharding`): a counterexample chain only
links conflicting transactions, so verdicts and witnesses decompose
exactly over components.  All allocation-independent structure
(conflict index, bitset kernel, reachability oracles, candidate-partner
lists, conflicting-pair tables) lives in
:class:`~repro.core.context.AnalysisContext`, one per component inside
a :class:`~repro.core.sharding.ShardedContext`.  Pass an existing
sharded context to amortize it across many checks of the same workload
(Algorithm 2 issues ``O(|T| * levels)`` of them); pass an
``AnalysisContext`` to analyze the workload as one unit — the
per-component core the sharded composition runs on each component.

One further acceleration lives here: :func:`check_robustness_delta`, a
restricted check for allocations that differ from a *known-robust* base
at exactly one transaction.  Every side condition of Definition 3.1 that
mentions isolation levels mentions only the levels of the triple
``(T_1, T_2, T_m)``, so a witness for the candidate that avoids the
changed transaction would already have been a witness for the robust
base — contradiction.  The scan therefore only visits triples involving
the changed transaction, an ``O(|T|^2)`` sweep instead of
``O(|T|^3)``.  Every downgrade probe of Algorithm 2 runs this same
scoped scan and asks only whether it finds a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from ..observability import current_tracer
from .conflicts import ConflictQuadruple, rw_conflicting
from .context import AnalysisContext, ConflictIndex, mixed_iso_graph
from .isolation import Allocation, IsolationLevel
from .kernel import has_witness, iter_witness_triples, level_list
from .operations import Operation
from .schedules import MVSchedule, canonical_schedule
from .sharding import (
    ShardedContext,
    _resolve_sharded,
    _validate,
    check_robustness_sharded,
    enumerate_specs_sharded,
    first_witness_spec_sharded,
)
from .split_schedule import SplitScheduleSpec, materialize, operation_order
from .transactions import Transaction
from .workload import Workload, WorkloadError

#: What the public entry points accept as ``context``: a sharded context
#: (the default per-component composition) or an ``AnalysisContext``
#: (the workload analyzed as one unit).
Context = Union[AnalysisContext, ShardedContext]

__all__ = [
    "Counterexample",
    "RobustnessResult",
    "check_robustness",
    "check_robustness_delta",
    "enumerate_counterexamples",
    "first_witness_spec",
    "is_robust",
    "mixed_iso_graph",
]


@dataclass(frozen=True)
class Counterexample:
    """A witness of non-robustness.

    Attributes:
        spec: the quadruple chain ``C`` of the multiversion split schedule.
        schedule: the materialized schedule — allowed under the allocation
            and not conflict serializable.
        allocation: the allocation the witness was found against (used by
            :func:`~repro.core.incremental.incremental_counterexample` to
            decide whether a chain transaction's level changed).
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


def _ww_conflict_free(
    b1: Operation,
    t1: Transaction,
    t2: Transaction,
    tm: Transaction,
    level1: IsolationLevel,
) -> bool:
    """Conditions (2)/(3) of Definition 3.1 for a candidate split point."""
    split_pos = t1.position(b1)
    blocked = t2.write_set | tm.write_set
    for c1 in t1.body:
        if not c1.is_write:
            continue
        if t1.position(c1) > split_pos and level1 is IsolationLevel.RC:
            continue
        if c1.obj in blocked:
            return False
    return True


def _triple_passes_ssi_conditions(
    allocation: Allocation, t1: Transaction, t2: Transaction, tm: Transaction
) -> bool:
    """Conditions (6)-(8) of Definition 3.1 on the triple ``(T_1, T_2, T_m)``."""
    ssi = IsolationLevel.SSI
    level1, level2, levelm = allocation[t1.tid], allocation[t2.tid], allocation[tm.tid]
    if level1 is ssi and level2 is ssi and levelm is ssi:
        return False
    if level1 is ssi and level2 is ssi and (t1.write_set & t2.read_set):
        return False
    if level1 is ssi and levelm is ssi and (t1.read_set & tm.write_set):
        return False
    return True


def _search_operations(
    ctx: AnalysisContext,
    allocation: Allocation,
    t1: Transaction,
    t2: Transaction,
    tm: Transaction,
) -> Optional[Tuple[Operation, Operation, Operation, Operation]]:
    """The inner loop of Algorithm 1: find ``(b_1, a_2, b_m, a_1)`` if any."""
    level1 = allocation[t1.tid]
    rc_split = level1 is IsolationLevel.RC
    for b1 in t1.body:
        if not b1.is_read or b1.obj not in t2.write_set:
            continue  # condition (4): b_1 rw-conflicting with some a_2
        if not _ww_conflict_free(b1, t1, t2, tm, level1):
            continue
        a2 = t2.write_op(b1.obj)
        assert a2 is not None
        for bm, a1 in ctx.conflicting_pairs(tm.tid, t1.tid):
            if rw_conflicting(bm, a1) or (rc_split and t1.before(b1, a1)):
                return (b1, a2, bm, a1)
    return None


def _build_chain(
    ctx: AnalysisContext,
    t1: Transaction,
    t2: Transaction,
    tm: Transaction,
    ops: Tuple[Operation, Operation, Operation, Operation],
    path: Optional[List[int]],
) -> SplitScheduleSpec:
    """Assemble the quadruple chain ``C`` for a discovered counterexample.

    ``path`` is the connecting chain ``T_3 ... T_{m-1}`` from the
    engine's reachability structure (the kernel row or the oracle).
    """
    b1, a2, bm, a1 = ops
    chain: List[ConflictQuadruple] = [ConflictQuadruple(t1.tid, b1, a2, t2.tid)]
    if t2.tid != tm.tid:
        assert path is not None
        hops = [t2.tid, *path, tm.tid]
        for left, right in zip(hops, hops[1:]):
            b, a = ctx.conflicting_pairs(left, right)[0]
            chain.append(ConflictQuadruple(left, b, a, right))
    chain.append(ConflictQuadruple(tm.tid, bm, a1, t1.tid))
    return SplitScheduleSpec(tuple(chain))


def _scan_t1(
    ctx: AnalysisContext,
    allocation: Allocation,
    t1: Transaction,
    method: str = "bitset",
    delta_tid: Optional[int] = None,
) -> Iterator[SplitScheduleSpec]:
    """Algorithm 1's inner loops for a fixed split candidate ``T_1``.

    Yields one :class:`~repro.core.split_schedule.SplitScheduleSpec` per
    problematic triple ``(T_1, T_2, T_m)``, in the deterministic
    ``(T_2, T_m)`` candidate order.  This generator is the single source
    of truth for the per-``T_1`` search: :func:`check_robustness` takes
    its first element, :func:`enumerate_counterexamples` drains it, and
    :func:`check_robustness_delta` and the reference engines' Algorithm 2
    probes run it with ``delta_tid`` set.  A ``bitset`` probe asks the
    kernel for existence only (:func:`_probe`).

    With a ``delta_tid`` other than ``T_1`` only the triples having it as
    ``T_2`` or ``T_m`` are visited: the subsequence of the full output
    through the changed transaction, which is all of it when
    ``allocation`` is one step below a robust one (the delta lemma of
    :func:`check_robustness_delta`).

    The ``bitset`` engine runs the whole triple scan on the kernel's
    integer rows and builds each witness's connecting chain from the
    same row (:meth:`~repro.core.kernel.BitKernel.connecting_path`), so
    it never builds a graph at all.
    """
    if method == "bitset":
        kernel = ctx.kernel()
        for t2, tm, ops in iter_witness_triples(kernel, allocation, t1, delta_tid):
            path = kernel.connecting_path(t1.tid, t2.tid, tm.tid)
            yield _build_chain(ctx, t1, t2, tm, ops, path)
        return
    candidates = ctx.candidates(t1, method)
    oracle = ctx.oracle(t1)
    index = ctx.index
    scoped = delta_tid not in (None, t1.tid)
    for t2 in candidates:
        for tm in candidates:
            if scoped and delta_tid not in (t2.tid, tm.tid):
                continue
            if method == "paper":
                reachable = _paper_reachable(index, t1, t2, tm)
            else:
                reachable = oracle.reachable(t2.tid, tm.tid)
            if not reachable:
                continue
            if not _triple_passes_ssi_conditions(allocation, t1, t2, tm):
                continue
            ops = _search_operations(ctx, allocation, t1, t2, tm)
            if ops is None:
                continue
            path = oracle.connecting_path(t2.tid, tm.tid)
            yield _build_chain(ctx, t1, t2, tm, ops, path)


def check_robustness(
    workload: Workload,
    allocation: Allocation,
    method: str = "bitset",
    context: Optional[Context] = None,
) -> RobustnessResult:
    """Decide robustness of ``workload`` against ``allocation`` (Algorithm 1).

    Returns a :class:`RobustnessResult`; when not robust, the result carries
    a :class:`Counterexample` whose materialized schedule is allowed under
    the allocation and not conflict serializable (Theorem 3.2).  The check
    runs in time polynomial in the workload size (Theorem 3.3).

    Args:
        workload: the set of transactions.
        allocation: an isolation level for every transaction.
        method: ``"bitset"`` (default, the integer-bitmask kernel of
            :mod:`repro.core.kernel`), ``"components"`` (cached
            graph reachability, the reference engine) or ``"paper"``
            (verbatim Algorithm 1 loop structure).  All three are
            bit-identical in verdicts and witnesses.
        context: omitted (or a
            :class:`~repro.core.sharding.ShardedContext`), the check runs
            per connected component of the conflict graph and composes
            the results (see :mod:`repro.core.sharding`); an
            :class:`~repro.core.context.AnalysisContext` analyzes the
            workload as one unit.  Both give bit-identical results;
            sharing a context across checks amortizes the
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
    if not isinstance(context, AnalysisContext):
        return check_robustness_sharded(
            workload, allocation, method=method, context=context
        )
    _validate(workload, allocation, method)
    spec = _first_witness(workload, allocation, method, context)
    if spec is None:
        return RobustnessResult(True)
    schedule = materialize(spec, workload, allocation)
    return RobustnessResult(False, Counterexample(spec, schedule, allocation))


def _check_scope(
    workload: Workload, context: AnalysisContext, delta_tid: Optional[int]
) -> Sequence[int]:
    """A check's split candidates ``T_1``, ascending.

    Every transaction of the workload, or with ``delta_tid`` only it and
    its conflict neighbours (:func:`check_robustness_delta`), a tuple
    cached on the conflict index
    (:meth:`~repro.core.context.ConflictIndex.scope`).
    """
    if delta_tid is None:
        return workload.tids
    return context.index.scope(delta_tid)


def _check_span(
    tracer, workload: Workload, method: str, delta_tid: Optional[int]
):
    """A check's span: ``robustness.check``, or ``robustness.check_delta``
    with the ``delta_tid`` it is scoped to."""
    if delta_tid is None:
        return tracer.span(
            "robustness.check", transactions=len(workload), method=method
        )
    return tracer.span(
        "robustness.check_delta",
        transactions=len(workload),
        method=method,
        delta_tid=delta_tid,
    )


def _first_witness(
    workload: Workload,
    allocation: Allocation,
    method: str,
    context: AnalysisContext,
    delta_tid: Optional[int] = None,
) -> Optional[SplitScheduleSpec]:
    """Algorithm 1's ascending-``T_1`` scan over one context.

    Stops at the first witness; counts one check on the context.  With
    ``delta_tid`` only the triples through it are scanned
    (:func:`check_robustness_delta`): ``T_1`` ranges over ``delta_tid``
    and its conflict neighbours, and :func:`_scan_t1` skips the rest.
    """
    context.ensure(workload)
    context.record_check()
    tracer = current_tracer()
    with _check_span(tracer, workload, method, delta_tid) as check_span:
        for tid in _check_scope(workload, context, delta_tid):
            with tracer.span("robustness.scan_t1", t1=tid):
                spec = next(
                    _scan_t1(context, allocation, workload[tid], method, delta_tid),
                    None,
                )
            if spec is not None:
                check_span.set(robust=False)
                return spec
        check_span.set(robust=True)
    return None


def _probe(
    workload: Workload,
    context: AnalysisContext,
    levels: Sequence[IsolationLevel],
    ssi: int,
    delta_tid: Optional[int] = None,
) -> bool:
    """Whether the ``bitset`` scan finds a witness against ``levels``.

    The Algorithm 2 probe: the allocation is a level list in bit order
    and its SSI tid mask, as
    :func:`~repro.core.allocation.refine_allocation` keeps it, and the
    scan is one :func:`~repro.core.kernel.has_witness` call over the
    check's candidates.  It counts one check, and it gives the verdict
    :func:`_first_witness` gives, without resolving operations or
    building a chain.  The check's span and its per-``T_1`` spans are
    opened only under a recording tracer: a probe is too short to pay
    for them otherwise.
    """
    context.record_check()
    kernel = context.kernel()
    t1s = _check_scope(workload, context, delta_tid)
    tracer = current_tracer()
    if not tracer.recording:
        return has_witness(kernel, levels, ssi, t1s, delta_tid)
    found = False
    with _check_span(tracer, workload, "bitset", delta_tid) as check_span:
        for tid in t1s:
            with tracer.span("robustness.scan_t1", t1=tid):
                found = has_witness(kernel, levels, ssi, (tid,), delta_tid)
            if found:
                break
        check_span.set(robust=not found)
    return found


def _witness_exists(
    workload: Workload,
    allocation: Allocation,
    method: str,
    context: AnalysisContext,
    delta_tid: Optional[int] = None,
) -> bool:
    """Whether :func:`_first_witness` would find a witness — existence only.

    The probe for a caller that holds an :class:`Allocation` (the
    manager's start check, and Algorithm 2's probes under a reference
    engine): one check counted.  The ``bitset`` engine runs
    :func:`_probe` on the allocation's level list; the reference engines
    build the first chain and drop it.
    """
    if method != "bitset":
        spec = _first_witness(workload, allocation, method, context, delta_tid)
        return spec is not None
    context.ensure(workload)
    levels, ssi = level_list(allocation, workload.tids)
    return _probe(workload, context, levels, ssi, delta_tid)


def check_robustness_delta(
    workload: Workload,
    allocation: Allocation,
    delta_tid: int,
    context: Optional[Context] = None,
    method: str = "bitset",
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

    ``context`` dispatches as in :func:`check_robustness`: omitted or a
    :class:`~repro.core.sharding.ShardedContext`, only the component of
    ``delta_tid`` (which holds every witness) is scanned and the
    counterexample is materialized against the full workload; an
    ``AnalysisContext`` scans the workload as one unit.

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
    _validate(workload, allocation, method)
    if delta_tid not in workload:
        raise WorkloadError(f"no transaction with id {delta_tid}")
    if isinstance(context, AnalysisContext):
        ctx, scanned = context, workload
    else:
        ctx = _resolve_sharded(workload, context).context_of(delta_tid)
        scanned = ctx.workload
    spec = _first_witness(scanned, allocation, method, ctx, delta_tid)
    if spec is None:
        return RobustnessResult(True)
    schedule = materialize(spec, workload, allocation)
    return RobustnessResult(False, Counterexample(spec, schedule, allocation))


def _paper_reachable(
    index: ConflictIndex, t1: Transaction, t2: Transaction, tm: Transaction
) -> bool:
    """The verbatim ``reachable(T_2, T_m, T_1)`` of Algorithm 1."""
    if t2.tid == tm.tid:
        return True
    if index.conflict(t2.tid, tm.tid):
        return True
    others = [
        t
        for t in index.transactions
        if t.tid not in (t1.tid, t2.tid, tm.tid)
    ]
    graph = mixed_iso_graph(t1, others)
    closure: Dict[int, Set[int]] = {
        node: nx.node_connected_component(graph, node) for node in graph.nodes
    }
    for t3 in graph.nodes:
        if not index.conflict(t2.tid, t3):
            continue
        for tm_minus_1 in closure[t3]:
            if index.conflict(tm_minus_1, tm.tid):
                return True
    return False


def first_witness_spec(
    workload: Workload,
    allocation: Allocation,
    method: str = "bitset",
    context: Optional[Context] = None,
) -> Optional[SplitScheduleSpec]:
    """The first counterexample spec, or ``None`` when robust — no schedule.

    The lean core of :func:`check_robustness`: identical scan, identical
    verdict, identical spec, but Theorem 3.2's schedule materialization
    is skipped entirely.  This is what the boolean callers — Algorithm
    2's downgrade probes (scoped to the lowered transaction),
    :func:`is_robust` — use: they never read the schedule, and
    materialization dominates the cost of a failed probe on mid-sized
    workloads.  ``context`` dispatches as in :func:`check_robustness`.
    """
    if not isinstance(context, AnalysisContext):
        return first_witness_spec_sharded(
            workload, allocation, method=method, context=context
        )
    _validate(workload, allocation, method)
    return _first_witness(workload, allocation, method, context)


def is_robust(
    workload: Workload,
    allocation: Allocation,
    method: str = "bitset",
    context: Optional[Context] = None,
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
    return first_witness_spec(workload, allocation, method, context) is None


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
    context: Optional[Context] = None,
    method: str = "bitset",
) -> Iterable[Counterexample]:
    """Yield one counterexample per problematic triple ``(T_1, T_2, T_m)``.

    Where :func:`check_robustness` stops at the first witness, this
    generator surveys the whole space of Algorithm 1's outer loop — one
    witness per distinct triple — which is what blame analysis
    (:func:`repro.analysis.blame.blame_report`) aggregates.  The number of
    yielded counterexamples is at most ``|T|^3``.

    The enumeration order is deterministic: ascending ``T_1`` id, then
    the nested ``(T_2, T_m)`` candidate order of Algorithm 1 (asserted
    by ``tests/core/test_robustness.py`` and the property suite).

    Args:
        workload: the set of transactions.
        allocation: an isolation level for every transaction.
        materialize_schedules: build (and re-verify) the concrete schedule
            for each witness; disable for cheap surveys of large spaces.
        context: dispatches as in :func:`check_robustness` — per
            conflict component when omitted or a
            :class:`~repro.core.sharding.ShardedContext`, as one unit for
            an :class:`~repro.core.context.AnalysisContext`; the yielded
            sequence is identical either way.
        method: ``"bitset"`` (default), ``"components"`` or ``"paper"``;
            the yielded sequence is identical for every engine.
    """
    if isinstance(context, AnalysisContext):
        context.ensure(workload)
        ctx, enumerate_specs = context, _enumerate_specs
    else:
        ctx, enumerate_specs = (
            _resolve_sharded(workload, context), enumerate_specs_sharded
        )
    _validate(workload, allocation, method)
    ctx.record_check()
    for spec in enumerate_specs(workload, allocation, method, ctx):
        yield _spec_to_counterexample(
            spec, workload, allocation, materialize_schedules
        )


def _enumerate_specs(
    workload: Workload,
    allocation: Allocation,
    method: str,
    context: AnalysisContext,
) -> Iterator[SplitScheduleSpec]:
    """Every witness spec over one context, in ascending ``T_1`` order.

    Does not count a robustness check — the caller owns
    :meth:`~repro.core.context.AnalysisContext.record_check`.
    """
    tracer = current_tracer()
    for t1 in workload:
        if tracer.recording:
            # Drain the scan inside its span so the recorded duration is
            # scan time, not consumer time between yields.  The yielded
            # sequence is identical either way.
            with tracer.span("robustness.scan_t1", t1=t1.tid, survey=True):
                specs = list(_scan_t1(context, allocation, t1, method))
        else:
            specs = _scan_t1(context, allocation, t1, method)
        yield from specs
