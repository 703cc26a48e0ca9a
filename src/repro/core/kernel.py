"""Bitset kernel for Algorithm 1's triple scan: the one production engine.

Every condition of Definition 3.1 is a set-intersection test, so the
kernel evaluates each one for *all* candidates at once, on the masks of
the :class:`~repro.core.context.AnalysisContext`, numbered within
``T_1``'s conflict component (bit order = ascending tid = candidate
order).  Per ``T_1`` it builds one row (:class:`_T1Row`):

* the candidates ``C = nbr[T_1]`` — ``T_2`` and ``T_m`` must conflict
  with ``T_1``;
* the connected components of the mixed-iso-graph inside ``T_1``'s
  conflict component (everything there outside ``C`` and ``T_1``), by
  a flood fill over the neighbour masks, each with
  ``att(K) = C & ∪_{v∈K} nbr[v]``, the candidates attached to it (one
  outside the conflict component touches no candidate);
* ``reach[T_2] = (nbr[T_2] & C) | bit(T_2) | ∪_{K touched by T_2}
  att(K)``: the ``T_m`` reachable from ``T_2`` through the graph — the
  relation is symmetric;
* per read ``b_1`` of ``T_1`` at position ``p``, a ``T_2`` mask and a
  ``T_m`` mask per case.  With ``prefW(p)`` the writers of the objects
  ``T_1`` writes before ``p``, ``Wall`` the writers of everything it
  writes, ``R_W1`` the readers of what it writes and ``after(p)`` the
  transactions conflicting with its operations after ``p``:

  - ``T_1`` at RC: ``C & writers[obj(b_1)] & ~prefW(p)`` (conditions
    (4), (2)/(3)) and ``C & ~prefW(p) & (R_W1 | after(p))`` ((2)/(3),
    (5) with its RC escape);
  - ``T_1`` at SI or SSI: the same with ``Wall`` for ``prefW(p)`` and
    ``R_W1`` alone.

  A read whose masks cannot both be non-empty is dropped at build time.

Per allocation the inputs are ``T_1``'s level and the mask ``S`` of SSI
transactions in its component: when ``T_1`` is SSI, condition (7)
removes ``S & R_W1`` from the ``T_2``\\ s, (8) removes ``S & W_R1``
(writers of what ``T_1`` reads) from the ``T_m``\\ s, and (6) removes
``S`` from the ``T_m``\\ s of an SSI ``T_2``.  :func:`_first_pair` is the
one place these conditions are evaluated: it returns the first
``(T_2, T_m)`` pair that survives them, after a given ``T_2``.

:func:`iter_witness_triples` calls it for ``T_2`` after ``T_2`` in
ascending bit order, walks each pair's ``T_m`` in ascending bit order
and takes ``b_1`` as the first read, in body order, whose masks hold
both — exactly the triples and operation choices, in exactly the order,
of the ``components`` reference engine's scan
(:mod:`repro.core.reference`); ``(b_m, a_1)`` is resolved only for an
emitted triple.
:func:`has_witness` is an Algorithm 2 probe: it asks only whether some
``T_1`` of a mask of candidates has a first pair, on the allocation as
one component's level list and SSI mask (:func:`level_list`), so it
needs no :class:`~repro.core.isolation.Allocation`.
:func:`connecting_path` returns the same intermediates as the
graph-backed
:meth:`~repro.core.reference.ReachabilityOracle.connecting_path`.  The
property suite (``tests/properties/test_kernel_equivalence.py``)
asserts bit-identical verdicts, witness specs and enumeration order.

A row is allocation-independent and depends only on ``T_1``'s
component: :func:`row_of` builds it on first use and caches it on the
:class:`~repro.core.context.Component`, counted on the analysis
context's :class:`~repro.core.context.ContextStats`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..observability import current_tracer
from .conflicts import conflicting_pairs, rw_conflicting
from .context import AnalysisContext, Component
from .isolation import Allocation, IsolationLevel
from .operations import Operation, OperationKind
from .transactions import Transaction

__all__ = [
    "connecting_path",
    "first_scan_pair",
    "has_witness",
    "iter_witness_triples",
    "level_list",
    "row_of",
]

#: A read of ``T_1`` that can split it: ``(b_1, position, t2s, tms)``.
SplitRead = Tuple[Operation, int, int, int]

_RC, _SSI = IsolationLevel.RC, IsolationLevel.SSI
_WRITE = OperationKind.WRITE


class _T1Row:
    """The per-``T_1`` masks of the module docstring, in the bits of
    ``T_1``'s conflict component.

    ``cands`` is ``C``; ``comps`` the mixed-iso-graph components inside
    ``T_1``'s conflict component as masks, in the order ``networkx``
    finds them (by lowest member);
    ``reach`` maps each candidate's bit to its reachable ``T_m`` mask;
    ``rc_reads`` / ``si_reads`` hold the split reads for ``T_1`` at RC /
    at SI or SSI, with ``rc_t2s`` / ``si_t2s`` the union of their ``T_2``
    masks; ``r_w1`` and ``w_r1`` are ``C & R_W1`` and ``C & W_R1``.
    """

    __slots__ = (
        "cands", "comps", "reach", "rc_reads", "rc_t2s", "si_reads",
        "si_t2s", "r_w1", "w_r1",
    )

    def __init__(
        self, cands, comps, reach, rc_reads, rc_t2s, si_reads, si_t2s, r_w1, w_r1
    ):
        self.cands: int = cands
        self.comps: Tuple[int, ...] = comps
        self.reach: Dict[int, int] = reach
        self.rc_reads: Tuple[SplitRead, ...] = rc_reads
        self.rc_t2s: int = rc_t2s
        self.si_reads: Tuple[SplitRead, ...] = si_reads
        self.si_t2s: int = si_t2s
        self.r_w1: int = r_w1
        self.w_r1: int = w_r1


def row_of(context: AnalysisContext, component: Component, t1_bit: int) -> _T1Row:
    """The row of ``component``'s member at ``t1_bit``, as ``T_1``.

    Cached on the component (``component.rows``), so a renumbering,
    which builds new components, leaves no stale row; built on first use
    (one ``kernel.row_build`` span) over the context's masks, and
    counted as a build or a hit on ``context.stats``.
    """
    cached = component.rows[t1_bit]
    if cached is not None:
        context.stats.kernel_row_hits += 1
        return cached
    with current_tracer().span("kernel.row_build", t1=component.tids[t1_bit]):
        cached = component.rows[t1_bit] = _build_row(context, component, t1_bit)
    context.stats.kernel_row_builds += 1
    return cached


def _build_row(context: AnalysisContext, component: Component, t1_bit: int) -> _T1Row:
    """The masks of the module docstring for ``component``'s member at
    ``t1_bit``."""
    bit_nbrs = component.nbrs
    readers, writers = context.readers, context.writers
    cands = bit_nbrs[t1_bit]
    # Mixed-iso-graph nodes of T_1's conflict component: all but T_1
    # and its neighbours.
    remaining = ((1 << len(bit_nbrs)) - 1) & ~(cands | 1 << t1_bit)
    # Flood-fill the components, each seeded at the lowest remaining
    # bit — the order networkx's connected_components finds them in.
    comps: List[int] = []
    atts: List[int] = []
    while remaining:
        comp = frontier = remaining & -remaining
        touched = 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= bit_nbrs[low.bit_length() - 1]
                frontier ^= low
            touched |= reach
            frontier = reach & remaining & ~comp
            comp |= frontier
        remaining &= ~comp
        comps.append(comp)
        atts.append(touched & cands)
    reach_of: Dict[int, int] = {}
    rest = cands
    while rest:
        low = rest & -rest
        rest ^= low
        mask = (bit_nbrs[low.bit_length() - 1] & cands) | low
        for att in atts:
            if att & low:
                mask |= att
        reach_of[low.bit_length() - 1] = mask
    # The per-read masks of the module docstring.
    t1 = context.transactions[component.tids[t1_bit]]
    body = t1.body
    w_all = r_w1 = w_r1 = 0
    for obj in t1.write_set:
        w_all |= writers[obj]
        r_w1 |= readers.get(obj, 0)
    for obj in t1.read_set:
        w_r1 |= writers.get(obj, 0)
    after = [0] * (len(body) + 1)
    for pos in range(len(body) - 1, -1, -1):
        op = body[pos]
        conf = writers.get(op.obj, 0)
        if op.kind is _WRITE:
            conf |= readers.get(op.obj, 0)
        after[pos] = after[pos + 1] | conf
    si_tms = cands & ~w_all & r_w1
    rc_reads: List[SplitRead] = []
    si_reads: List[SplitRead] = []
    pref_w = rc_all = si_all = 0
    for pos, op in enumerate(body):
        if op.kind is _WRITE:
            pref_w |= writers[op.obj]
            continue
        wo = cands & writers.get(op.obj, 0)
        rc_t2s = wo & ~pref_w
        rc_tms = cands & ~pref_w & (r_w1 | after[pos + 1])
        if rc_t2s and rc_tms:
            rc_reads.append((op, pos, rc_t2s, rc_tms))
            rc_all |= rc_t2s
        si_t2s = wo & ~w_all
        if si_t2s and si_tms:
            si_reads.append((op, pos, si_t2s, si_tms))
            si_all |= si_t2s
    return _T1Row(
        cands, tuple(comps), reach_of, tuple(rc_reads), rc_all,
        tuple(si_reads), si_all, cands & r_w1, cands & w_r1,
    )

def connecting_path(
    context: AnalysisContext, t1_tid: int, t2_tid: int, tm_tid: int
) -> Optional[List[int]]:
    """Intermediate transactions ``T_3 ... T_{m-1}`` linking ``T_2`` to ``T_m``.

    The bitset twin of
    :meth:`ReachabilityOracle.connecting_path
    <repro.core.reference.ReachabilityOracle.connecting_path>`, with
    the identical result: an empty list for a direct conflict (or
    ``t2_tid == tm_tid``), ``None`` when the pair is not reachable,
    and otherwise the same breadth-first path through the lowest
    shared component — starts taken in the iteration order of
    ``context.conflict_neighbours(t2_tid)``, neighbours visited in
    ascending tid order (how ``networkx`` stores the
    mixed-iso-graph's adjacency).  Reads ``T_1``'s row without
    counting a row hit: the scan that found the witness just fetched
    it.
    """
    if t2_tid == tm_tid or context.conflict(t2_tid, tm_tid):
        return []
    component = context.component_of[t1_tid]
    tid_bit = context.bit
    t1_bit = tid_bit[t1_tid]
    row = component.rows[t1_bit] or row_of(context, component, t1_bit)
    nbrs, tids = component.nbrs, component.tids
    nbr2 = nbrs[tid_bit[t2_tid]]
    ends = nbrs[tid_bit[tm_tid]]
    for comp in row.comps:
        if nbr2 & comp and ends & comp:
            break
    else:
        return None
    ends &= comp
    starts = [
        tid
        for tid in context.conflict_neighbours(t2_tid)
        if (comp >> tid_bit[tid]) & 1
    ]
    parents: Dict[int, Optional[int]] = {tid: None for tid in starts}
    goal = next((tid for tid in starts if (ends >> tid_bit[tid]) & 1), None)
    frontier = starts
    while frontier and goal is None:
        next_frontier: List[int] = []
        for node in frontier:
            rest = nbrs[tid_bit[node]] & comp
            while rest:
                low = rest & -rest
                rest ^= low
                neighbour = tids[low.bit_length() - 1]
                if neighbour in parents:
                    continue
                parents[neighbour] = node
                if ends & low:
                    goal = neighbour
                    break
                next_frontier.append(neighbour)
            if goal is not None:
                break
        frontier = next_frontier
    path = [goal]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def level_list(
    allocation: Allocation, tids: Sequence[int]
) -> Tuple[List[IsolationLevel], int]:
    """``allocation`` as :func:`has_witness` reads it.

    The levels of ``tids`` (a component's ascending members) as a list
    in bit order, and the mask of those at SSI.
    """
    levels = [allocation[tid] for tid in tids]
    ssi = 0
    for bit, level in enumerate(levels):
        if level is _SSI:
            ssi |= 1 << bit
    return levels, ssi


def _first_pair(
    row: _T1Row,
    level1: IsolationLevel,
    ssi: int,
    scoped: int,
    after: int = 0,
) -> Optional[Tuple[int, int]]:
    """The first ``(T_2 flag, T_m mask)`` of ``row`` whose ``T_2`` is above ``after``.

    The one copy of Definition 3.1's mask conditions: ``T_2`` ascends
    from the bit above the flag ``after`` (from the lowest bit when 0),
    and the ``T_m`` mask is non-empty and already holds every condition
    but the choice of ``b_1``.  ``level1`` is ``T_1``'s level and ``ssi``
    the allocation's SSI tid mask, read only when ``T_1`` is SSI.  With
    ``scoped`` the flag of a ``delta_tid`` other than ``T_1``, only pairs
    through it remain: ``T_2`` is it or reaches it, and every other
    ``T_2`` keeps only it as ``T_m``; with 0 every pair counts.
    """
    if level1 is _RC:
        reads, t2_set = row.rc_reads, row.rc_t2s
    else:
        reads, t2_set = row.si_reads, row.si_t2s
    reach = row.reach
    if scoped:
        if not row.cands & scoped:
            return None
        t2_set &= reach[scoped.bit_length() - 1]
    if after:
        t2_set &= -(after << 1)
    if not t2_set:
        return None
    ssi_cands = no_tm = 0
    if level1 is _SSI:
        ssi_cands = ssi & row.cands
        t2_set &= ~(ssi_cands & row.r_w1)  # (7)
        no_tm = ssi_cands & row.w_r1  # (8)
    while t2_set:
        low = t2_set & -t2_set
        t2_set ^= low
        tms = 0
        for read in reads:
            if read[2] & low:
                tms |= read[3]
        if low & ssi_cands:
            tms &= ~ssi_cands  # (6)
        tms &= reach[low.bit_length() - 1] & ~no_tm
        if scoped and low != scoped:
            tms &= scoped
        if tms:
            return low, tms
    return None


def has_witness(
    context: AnalysisContext,
    component: Component,
    levels: Sequence[IsolationLevel],
    ssi: int,
    t1s: int,
    scoped: int,
) -> bool:
    """Whether :func:`iter_witness_triples` yields anything for some ``T_1``.

    The Algorithm 2 probe, one call per probe, inside one conflict
    ``component``: ``t1s`` is the mask of its members to scan as
    ``T_1``, ``scoped`` the flag of the lowered member (0 when every
    pair counts), and the allocation is the component's level list
    ``levels`` in bit order (``levels[i]`` belongs to its ``i``-th
    smallest member) and its SSI mask ``ssi``.  ``T_1`` ascends and
    the scan stops at the first ``T_1`` with a witness pair, so exactly
    the rows a scan of :func:`iter_witness_triples` would fetch are
    fetched (and counted).  Only existence matters: no operation is
    resolved and no chain built.
    """
    while t1s:
        low = t1s & -t1s
        t1s ^= low
        t1_bit = low.bit_length() - 1
        pair = _first_pair(
            row_of(context, component, t1_bit),
            levels[t1_bit],
            ssi,
            0 if low == scoped else scoped,
        )
        if pair is not None:
            return True
    return False


#: What :func:`first_scan_pair` hands the rest of ``T_1``'s scan: its
#: row, ``T_1``'s level, the SSI mask, the ``scoped`` flag and the first
#: ``(T_2 flag, T_m mask)`` pair.
ScanStart = Tuple[_T1Row, IsolationLevel, int, int, Tuple[int, int]]


def first_scan_pair(
    context: AnalysisContext,
    allocation: Allocation,
    t1: Transaction,
    ssi_masks: Dict[Component, int],
    delta_tid: Optional[int] = None,
) -> Optional[ScanStart]:
    """The first pair of ``T_1``'s scan, or ``None`` when it yields nothing.

    One :func:`_first_pair` on ``T_1``'s row, fetched (and counted)
    here: a robust ``T_1`` costs no generator.  The arguments are those
    of :func:`iter_witness_triples`, which continues the scan from the
    result.
    """
    component = context.component_of[t1.tid]
    scoped = 0
    if delta_tid is not None and delta_tid != t1.tid:
        if context.component_of[delta_tid] is not component:
            return None
        scoped = 1 << context.bit[delta_tid]
    row = row_of(context, component, context.bit[t1.tid])
    level1 = allocation[t1.tid]
    ssi = 0
    if level1 is _SSI:
        ssi = ssi_masks.get(component)
        if ssi is None:
            ssi = ssi_masks[component] = level_list(allocation, component.tids)[1]
    pair = _first_pair(row, level1, ssi, scoped)
    if pair is None:
        return None
    return row, level1, ssi, scoped, pair


def iter_witness_triples(
    context: AnalysisContext,
    allocation: Allocation,
    t1: Transaction,
    ssi_masks: Dict[Component, int],
    delta_tid: Optional[int] = None,
    start: Optional[ScanStart] = None,
) -> Iterator[
    Tuple[Transaction, Transaction, Tuple[Operation, Operation, Operation, Operation]]
]:
    """Algorithm 1's inner loops for ``T_1``, on the row masks.

    Yields ``(T_2, T_m, (b_1, a_2, b_m, a_1))`` for every problematic
    triple, in the deterministic ``(T_2, T_m)`` candidate order — the
    exact triples and operation choices of the ``components`` engine.
    ``ssi_masks`` holds the SSI masks of ``allocation`` by component
    for the calling check, which passes one dict to every ``T_1`` it
    scans: the mask of ``T_1``'s component is computed there once, on
    first need.

    With a ``delta_tid`` other than ``T_1`` only the triples having it as
    ``T_2`` or ``T_m`` are yielded, in the same order; none when it does
    not conflict with ``T_1`` (the scope of
    :func:`~repro.core.robustness.check_robustness_delta`).  ``start``
    is :func:`first_scan_pair`'s result for the same arguments when the
    caller has it; the row it holds is not fetched again.
    """
    if start is None:
        start = first_scan_pair(context, allocation, t1, ssi_masks, delta_tid)
        if start is None:
            return
    row, level1, ssi, scoped, pair = start
    transactions = context.transactions
    tids = context.component_of[t1.tid].tids
    rc = level1 is _RC
    reads = row.rc_reads if rc else row.si_reads
    while pair is not None:
        low2, tms = pair
        t2 = transactions[tids[low2.bit_length() - 1]]
        while tms:
            low_m = tms & -tms
            tms ^= low_m
            tm = transactions[tids[low_m.bit_length() - 1]]
            b1, pos = next(
                (read[0], read[1])
                for read in reads
                if read[2] & low2 and read[3] & low_m
            )
            bm, a1 = next(
                (bm, a1)
                for bm, a1 in conflicting_pairs(tm, t1)
                if rw_conflicting(bm, a1) or (rc and t1.position(a1) > pos)
            )
            yield t2, tm, (b1, t2.write_op(b1.obj), bm, a1)
        pair = _first_pair(row, level1, ssi, scoped, low2)
