"""Dense bitset kernel for Algorithm 1's triple scan (``method="bitset"``).

The ``components`` engine already caches the mixed-iso-graph structure,
but its inner loop still pays Python-object prices per triple
``(T_1, T_2, T_m)``: every ``reachable`` call builds a fresh
``attached_components`` frozenset, the SSI conditions (6)-(8) run
per-triple set intersections and allocation dict lookups, and
``_search_operations`` rescans ``t1.body`` with ``t1.position()`` calls
inside ``_ww_conflict_free``.  Algorithm 2 multiplies all of it by
``O(|T| * levels)`` robustness checks.

:class:`BitKernel` repacks the allocation-independent structure of
:class:`~repro.core.context.AnalysisContext` into integer bitmask rows
over two bit tables (tid -> bit index, object -> bit index):

* **conflict rows** — per-tid neighbour masks, so ``conflict`` and
  ``conflict_neighbours`` are single ``&`` / shift tests;
* **reachability rows** — per ``T_1``, the connected components of the
  mixed-iso-graph as tid bitmasks (a flood fill over the conflict rows,
  no graph object) and one *attached-components bitmask per
  candidate*, so ``reachable(T_2, T_m)`` collapses to
  ``tid_2 == tid_m or (nbr_mask[t2] >> bit_m) & 1 or
  (att[t2] & att[tm]) != 0`` with zero allocations, and a witness's
  connecting chain ``T_3 ... T_{m-1}`` is a breadth-first search inside
  one component mask (:meth:`BitKernel.connecting_path`);
* **split tables** — per ``(T_1, T_2)``, the viable ``b_1`` choices of
  condition (4), each stored with its position and the
  write-objects-in-prefix mask, so conditions (2)/(3) reduce to one
  mask test against ``write_mask[T_2] | write_mask[T_m]``;
* **pair tables** — per ``(T_m, T_1)``, the conflicting ``(b_m, a_1)``
  pairs flattened to parallel ``rw``-flag and ``a_1``-position arrays
  plus ``first_rw`` / ``max_a_pos`` summaries, so condition (5)'s
  *existence* is two integer comparisons and the concrete pair is only
  resolved when a witness is actually emitted.

The level-dependent residue of conditions (6)-(8) is evaluated once per
``(T_1, level-class)``: candidates are classified per allocation into
"can ever be ``T_2``" / "can ever be ``T_m``" / "is SSI" flags, so whole
candidate classes are skipped instead of re-testing per triple.

:func:`iter_witness_triples` yields exactly the triples (with their
``(b_1, a_2, b_m, a_1)`` operation choice) that the ``components``
engine's :func:`~repro.core.robustness._scan_t1` discovers, in the same
deterministic order, and :meth:`BitKernel.connecting_path` returns the
same intermediates as the graph-backed
:meth:`~repro.core.context.ReachabilityOracle.connecting_path` — the
property suite (``tests/properties/test_kernel_equivalence.py``)
asserts bit-identical verdicts, witness specs and enumeration order.

The kernel is allocation-independent and lives on the analysis context
(:meth:`~repro.core.context.AnalysisContext.kernel`); the parallel
workers rebuild it lazily per process (it is never pickled).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..observability import current_tracer
from .conflicts import conflicting_pairs
from .isolation import Allocation, IsolationLevel
from .operations import Operation
from .transactions import Transaction
from .workload import Workload

__all__ = ["BitKernel", "iter_witness_triples"]


#: A split-table entry: ``(b_1, a_2, split_pos, prefix_write_mask)``.
SplitEntry = Tuple[Operation, Operation, int, int]

#: A pair table: ``(pairs, rw_flags, a_positions, first_rw, max_a_pos)``.
#: ``first_rw`` is the index of the first rw-conflicting pair (or -1);
#: ``max_a_pos`` the largest ``a_1`` position (or -1 when empty).
PairTable = Tuple[
    Tuple[Tuple[Operation, Operation], ...],
    Tuple[bool, ...],
    Tuple[int, ...],
    int,
    int,
]


class _T1Row:
    """The per-``T_1`` reachability row: candidates + attached-component masks.

    ``candidates`` is the same ascending-tid tuple the ``components``
    engine iterates; the aligned lists hold, per candidate, its tid, its
    tid-bit, its object write mask and its attached-components bitmask
    over this row's mixed-iso-graph components.  ``comps`` holds each
    component's tid-bit mask, numbered in the order ``networkx``
    discovers them (by lowest member bit), which the attached-components
    bits index.
    """

    __slots__ = (
        "candidates",
        "cand_tids",
        "cand_bits",
        "cand_wmasks",
        "cand_nbrs",
        "att",
        "comps",
    )

    def __init__(
        self,
        candidates: Tuple[Transaction, ...],
        cand_tids: Tuple[int, ...],
        cand_bits: Tuple[int, ...],
        cand_wmasks: Tuple[int, ...],
        cand_nbrs: Tuple[int, ...],
        att: Tuple[int, ...],
        comps: Tuple[int, ...],
    ):
        self.candidates = candidates
        self.cand_tids = cand_tids
        self.cand_bits = cand_bits
        self.cand_wmasks = cand_wmasks
        self.cand_nbrs = cand_nbrs
        self.att = att
        self.comps = comps


class BitKernel:
    """Bit-packed, allocation-independent structure for one workload.

    Built lazily by :meth:`AnalysisContext.kernel
    <repro.core.context.AnalysisContext.kernel>`; rows and tables are
    themselves built lazily per ``T_1`` / per pair and cached for the
    workload's lifetime.  ``stats`` (when given) receives the
    ``kernel_row_builds`` / ``kernel_row_hits`` accounting surfaced by
    ``--stats``.
    """

    def __init__(self, workload: Workload, index, stats=None):
        self.workload = workload
        self.index = index
        self.stats = stats
        tids = workload.tids
        self.tids = tids  # bit index -> tid
        self.tid_bit: Dict[int, int] = {tid: i for i, tid in enumerate(tids)}
        objects = sorted(
            {obj for txn in workload for obj in (txn.read_set | txn.write_set)}
        )
        self.obj_bit: Dict[str, int] = {obj: i for i, obj in enumerate(objects)}
        obj_bit = self.obj_bit
        self.read_mask: Dict[int, int] = {}
        self.write_mask: Dict[int, int] = {}
        self.nbr_mask: Dict[int, int] = {}
        tid_bit = self.tid_bit
        for txn in workload:
            rmask = 0
            for obj in txn.read_set:
                rmask |= 1 << obj_bit[obj]
            wmask = 0
            for obj in txn.write_set:
                wmask |= 1 << obj_bit[obj]
            self.read_mask[txn.tid] = rmask
            self.write_mask[txn.tid] = wmask
            nbrs = 0
            for other in index.conflict_neighbours(txn.tid):
                nbrs |= 1 << tid_bit[other]
            self.nbr_mask[txn.tid] = nbrs
        self._bit_nbrs = tuple(self.nbr_mask[tid] for tid in tids)
        self._rows: Dict[int, _T1Row] = {}
        # Split-table caches: per-T1 read entries, specialized per (T1, T2).
        self._read_entries: Dict[int, Tuple[Tuple[Operation, int, int], ...]] = {}
        self._splits: Dict[Tuple[int, int], Tuple[SplitEntry, ...]] = {}
        self._pairs: Dict[Tuple[int, int], PairTable] = {}

    # -- conflict rows --------------------------------------------------
    def conflict(self, tid_i: int, tid_j: int) -> bool:
        """Whether the two transactions conflict — a single shift-and-test."""
        return (self.nbr_mask[tid_i] >> self.tid_bit[tid_j]) & 1 == 1

    # -- reachability rows ----------------------------------------------
    def row(self, t1_tid: int) -> _T1Row:
        """The (cached) reachability row for split candidate ``t1_tid``."""
        cached = self._rows.get(t1_tid)
        if cached is not None:
            if self.stats is not None:
                self.stats.kernel_row_hits += 1
            return cached
        with current_tracer().span("kernel.row_build", t1=t1_tid):
            row = self._build_row(t1_tid)
        self._rows[t1_tid] = row
        if self.stats is not None:
            self.stats.kernel_row_builds += 1
        return row

    def _build_row(self, t1_tid: int) -> _T1Row:
        nbr_mask = self.nbr_mask
        bit_nbrs = self._bit_nbrs
        candidates = tuple(
            self.workload[tid]
            for tid in sorted(self.index.conflict_neighbours(t1_tid))
        )
        # Mixed-iso-graph nodes: everything but T_1 and its neighbours.
        remaining = ((1 << len(self.tids)) - 1) & ~(
            nbr_mask[t1_tid] | 1 << self.tid_bit[t1_tid]
        )
        # Flood-fill the components, each seeded at the lowest remaining
        # bit — the order networkx's connected_components finds them in.
        comps: List[int] = []
        while remaining:
            comp = frontier = remaining & -remaining
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= bit_nbrs[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & remaining & ~comp
                comp |= frontier
            remaining &= ~comp
            comps.append(comp)
        att: List[int] = []
        for cand in candidates:
            nbrs = nbr_mask[cand.tid]
            mask = 0
            for k, comp in enumerate(comps):
                if nbrs & comp:
                    mask |= 1 << k
            att.append(mask)
        tid_bit = self.tid_bit
        write_mask = self.write_mask
        return _T1Row(
            candidates,
            tuple(c.tid for c in candidates),
            tuple(tid_bit[c.tid] for c in candidates),
            tuple(write_mask[c.tid] for c in candidates),
            tuple(nbr_mask[c.tid] for c in candidates),
            tuple(att),
            tuple(comps),
        )

    def connecting_path(
        self, t1_tid: int, t2_tid: int, tm_tid: int
    ) -> Optional[List[int]]:
        """Intermediate transactions ``T_3 ... T_{m-1}`` linking ``T_2`` to ``T_m``.

        The bitset twin of
        :meth:`ReachabilityOracle.connecting_path
        <repro.core.context.ReachabilityOracle.connecting_path>`, with
        the identical result: an empty list for a direct conflict (or
        ``t2_tid == tm_tid``), ``None`` when the pair is not reachable,
        and otherwise the same breadth-first path through the lowest
        shared component — starts taken in the iteration order of
        ``index.conflict_neighbours(t2_tid)``, neighbours visited in
        ascending tid order (how ``networkx`` stores the
        mixed-iso-graph's adjacency).  Reads ``T_1``'s row without
        counting a row hit: the scan that found the witness just fetched
        it.
        """
        nbr_mask = self.nbr_mask
        if t2_tid == tm_tid or self.conflict(t2_tid, tm_tid):
            return []
        row = self._rows.get(t1_tid) or self.row(t1_tid)
        nbr2 = nbr_mask[t2_tid]
        ends = nbr_mask[tm_tid]
        for comp in row.comps:
            if nbr2 & comp and ends & comp:
                break
        else:
            return None
        ends &= comp
        tid_bit = self.tid_bit
        tids = self.tids
        starts = [
            tid
            for tid in self.index.conflict_neighbours(t2_tid)
            if (comp >> tid_bit[tid]) & 1
        ]
        parents: Dict[int, Optional[int]] = {tid: None for tid in starts}
        goal = next((tid for tid in starts if (ends >> tid_bit[tid]) & 1), None)
        frontier = starts
        while frontier and goal is None:
            next_frontier: List[int] = []
            for node in frontier:
                nbrs = nbr_mask[node] & comp
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
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

    # -- split tables ----------------------------------------------------
    def _t1_read_entries(
        self, t1_tid: int
    ) -> Tuple[Tuple[Operation, int, int], ...]:
        """``(b_1, split_pos, prefix_write_mask)`` for every read of ``T_1``.

        ``prefix_write_mask`` bit-packs the objects ``T_1`` writes at
        positions ``<= split_pos`` — the writes conditions (2)/(3) test
        when ``T_1`` runs at RC (the full :attr:`write_mask` row covers
        the non-RC case).
        """
        cached = self._read_entries.get(t1_tid)
        if cached is not None:
            return cached
        t1 = self.workload[t1_tid]
        obj_bit = self.obj_bit
        entries: List[Tuple[Operation, int, int]] = []
        prefix_mask = 0
        for pos, op in enumerate(t1.body):
            if op.is_write:
                prefix_mask |= 1 << obj_bit[op.obj]
            elif op.is_read:
                entries.append((op, pos, prefix_mask))
        result = tuple(entries)
        self._read_entries[t1_tid] = result
        return result

    def split_entries(self, t1_tid: int, t2_tid: int) -> Tuple[SplitEntry, ...]:
        """The viable ``b_1`` choices of condition (4) for ``(T_1, T_2)``.

        Each entry carries ``b_1``, its rw-partner ``a_2 = W_2[obj]``,
        the split position and the prefix write mask — everything the
        scan needs so conditions (2)/(3) become one mask test and
        ``t1.body`` is never rescanned.
        """
        key = (t1_tid, t2_tid)
        cached = self._splits.get(key)
        if cached is not None:
            return cached
        t2 = self.workload[t2_tid]
        t2_writes = t2.write_set
        entries = tuple(
            (b1, t2.write_op(b1.obj), pos, prefix_mask)
            for b1, pos, prefix_mask in self._t1_read_entries(t1_tid)
            if b1.obj in t2_writes
        )
        self._splits[key] = entries
        return entries

    # -- pair tables -----------------------------------------------------
    def pair_table(self, tid_b: int, tid_a: int) -> PairTable:
        """Flattened conflicting-pair structure from ``tid_b`` into ``tid_a``.

        Pair order is exactly :func:`~repro.core.conflicts.conflicting_pairs`
        (what ``_search_operations`` iterates), so resolving "the first
        matching pair" from the flag arrays picks the identical
        operations.
        """
        key = (tid_b, tid_a)
        cached = self._pairs.get(key)
        if cached is not None:
            if self.stats is not None:
                self.stats.pair_hits += 1
            return cached
        if self.stats is not None:
            self.stats.pair_builds += 1
        ta = self.workload[tid_a]
        pairs = tuple(conflicting_pairs(self.workload[tid_b], ta))
        rw_flags = tuple(b.is_read and a.is_write for b, a in pairs)
        a_pos = tuple(ta.position(a) for _b, a in pairs)
        first_rw = -1
        for i, flag in enumerate(rw_flags):
            if flag:
                first_rw = i
                break
        max_a_pos = max(a_pos, default=-1)
        table: PairTable = (pairs, rw_flags, a_pos, first_rw, max_a_pos)
        self._pairs[key] = table
        return table


def iter_witness_triples(
    kernel: BitKernel,
    allocation: Allocation,
    t1: Transaction,
    delta_tid: Optional[int] = None,
) -> Iterator[
    Tuple[Transaction, Transaction, Tuple[Operation, Operation, Operation, Operation]]
]:
    """Algorithm 1's inner loops for ``T_1``, on the bitset rows.

    Yields ``(T_2, T_m, (b_1, a_2, b_m, a_1))`` for every problematic
    triple, in the deterministic ``(T_2, T_m)`` candidate order — the
    exact triples and operation choices of the ``components`` engine.

    With a ``delta_tid`` other than ``T_1`` only the triples having it as
    ``T_2`` or ``T_m`` are yielded, in the same order: its ``T_2`` row
    scans every ``T_m``, every other row only its ``T_m`` column —
    ``2n - 1`` pairs instead of ``n^2``, none when it does not conflict
    with ``T_1`` (the scope of
    :func:`~repro.core.robustness.check_robustness_delta`).
    """
    t1_tid = t1.tid
    row = kernel.row(t1_tid)
    cands = row.candidates
    cand_tids = row.cand_tids
    range_n = range(len(cands))
    d, tm_range = -1, range_n  # no delta row: every row scans every T_m
    if delta_tid not in (None, t1_tid):
        if delta_tid not in cand_tids:
            return
        d = cand_tids.index(delta_tid)
        tm_range = (d,)
    if not cands:
        return
    level1 = allocation[t1_tid]
    rc_split = level1 is IsolationLevel.RC
    ssi = IsolationLevel.SSI
    # Level-class grouping: conditions (6)-(8) all require T_1 at SSI, so
    # with any other level1 the whole residue vanishes.  Otherwise each
    # candidate is classified once — (7) disqualifies it as T_2 outright,
    # (8) as T_m, and (6) excludes SSI/SSI combinations — instead of
    # re-testing the conditions per triple.
    if level1 is ssi:
        r1 = kernel.read_mask[t1_tid]
        w1 = kernel.write_mask[t1_tid]
        read_mask = kernel.read_mask
        cand_ssi = tuple(allocation[tid] is ssi for tid in cand_tids)
        t2_blocked = tuple(
            is_ssi and (w1 & read_mask[tid]) != 0
            for tid, is_ssi in zip(cand_tids, cand_ssi)
        )
        tm_blocked = tuple(
            is_ssi and (r1 & wmask) != 0
            for wmask, is_ssi in zip(row.cand_wmasks, cand_ssi)
        )
    else:
        cand_ssi = t2_blocked = tm_blocked = None
    all_wmask = kernel.write_mask[t1_tid]
    cand_bits = row.cand_bits
    cand_wmasks = row.cand_wmasks
    att = row.att
    pair_table = kernel.pair_table
    split_entries = kernel.split_entries
    for i2 in range_n:
        if t2_blocked is not None and t2_blocked[i2]:
            continue
        t2_tid = cand_tids[i2]
        entries = split_entries(t1_tid, t2_tid)
        if not entries:
            # No b_1 satisfies condition (4) against this T_2 for any
            # T_m: the components engine scans the T_m row and never
            # yields; skipping it wholesale preserves the output order.
            continue
        t2_ssi = cand_ssi is not None and cand_ssi[i2]
        att2 = att[i2]
        nbr2 = row.cand_nbrs[i2]
        w2 = cand_wmasks[i2]
        for im in range_n if i2 == d else tm_range:
            tm_tid = cand_tids[im]
            if tm_blocked is not None and (
                tm_blocked[im] or (t2_ssi and cand_ssi[im])
            ):
                continue
            if (
                tm_tid != t2_tid
                and not (nbr2 >> cand_bits[im]) & 1
                and not att2 & att[im]
            ):
                continue
            pairs, rw_flags, a_pos, first_rw, max_a_pos = pair_table(
                tm_tid, t1_tid
            )
            # Condition (5) existence, hoisted: without an rw pair (and,
            # at RC, without any a_1 after the earliest split) no b_1
            # can close the chain on this T_m.
            if first_rw < 0 and not (rc_split and max_a_pos > entries[0][2]):
                continue
            blocked = w2 | cand_wmasks[im]
            for b1, a2, split_pos, prefix_mask in entries:
                if (prefix_mask if rc_split else all_wmask) & blocked:
                    continue  # conditions (2)/(3)
                if rc_split:
                    if first_rw < 0 and max_a_pos <= split_pos:
                        continue  # condition (5) fails for this split
                    # Resolve the first matching pair only now that a
                    # witness is actually being emitted.
                    idx = next(
                        i
                        for i in range(len(pairs))
                        if rw_flags[i] or a_pos[i] > split_pos
                    )
                else:
                    idx = first_rw
                bm, a1 = pairs[idx]
                yield cands[i2], cands[im], (b1, a2, bm, a1)
                break
