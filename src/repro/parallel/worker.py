"""Worker-process entry points of the parallel engine.

Each worker process keeps a small cache of
:class:`~repro.core.context.AnalysisContext` objects keyed by the
*workload encoding* it receives with every task (the context-rebuild
handshake): the first task for a workload pays one context build, every
later task for the same workload reuses the warm caches — kernel rows,
candidate lists and conflicting-pair tables accumulate across tasks
exactly as they do in a sequential run.

Every task returns its *stats delta* — the worker context's counters
before/after difference — so the parent can merge truthful totals into
the caller-visible context (``--stats`` reports work actually done,
wherever it ran).  When the parent traces (the ``trace`` flag of each
task), the worker additionally records its spans — the chunk itself and
the per-``T_1`` scans / downgrade probes inside it — into a private
per-task tracer and ships the finished batch back with the result; the
parent re-parents the batch under its dispatching span.  With tracing
off the shipped batch is the empty tuple.

All functions here are top-level and take only picklable encodings, so
they work under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict, Tuple

from ..core.allocation import _probe_robust
from ..core.context import AnalysisContext
from ..core.robustness import _scan_t1
from ..observability import SpanBatch, use_tracer, worker_tracer
from .encoding import (
    AllocationEncoding,
    WorkloadEncoding,
    decode_allocation,
    decode_workload,
    encode_span_batch,
    encode_spec,
)

#: Contexts kept per worker process (LRU by workload encoding).
_CONTEXT_CACHE_SIZE = 8

_contexts: "OrderedDict[WorkloadEncoding, AnalysisContext]" = OrderedDict()


def _context_for(
    encoding: WorkloadEncoding,
) -> Tuple[AnalysisContext, Dict[str, int]]:
    """This worker's context for the encoded workload, plus the stats
    baseline for the current task's delta.

    On a cache hit the baseline is the counters as they stand; on a miss
    it is all zeros, so the context build itself (the conflict-index
    construction) lands in the first task's delta and the parent's merged
    ``--stats`` totals stay truthful.
    """
    ctx = _contexts.get(encoding)
    if ctx is None:
        ctx = AnalysisContext(decode_workload(encoding))
        _contexts[encoding] = ctx
        while len(_contexts) > _CONTEXT_CACHE_SIZE:
            _contexts.popitem(last=False)
        baseline = {name: 0 for name in ctx.stats.as_dict()}
    else:
        _contexts.move_to_end(encoding)
        baseline = ctx.stats.as_dict()
    return ctx, baseline


def _stats_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {name: after[name] - before[name] for name in after}


def scan_chunk(
    workload_enc: WorkloadEncoding,
    allocation_enc: AllocationEncoding,
    t1_tids: Tuple[int, ...],
    find_all: bool,
    trace: bool = False,
    method: str = "bitset",
) -> Tuple[object, Dict[str, int], SpanBatch]:
    """Run Algorithm 1's per-``T_1`` search for a chunk of candidates.

    With ``find_all`` the full survey of every ``T_1`` in the chunk is
    returned as ``((t1_tid, (spec_enc, ...)), ...)`` preserving scan
    order; otherwise the scan stops at the chunk's first witness and
    returns ``(t1_tid, spec_enc)`` or ``None``.  With ``trace`` the
    chunk and its per-``T_1`` scans are recorded as spans and shipped
    back as the third element of the return tuple.  ``method`` picks the
    scan engine (``"bitset"`` or ``"components"``); the bitset kernel is
    rebuilt inside each worker from its cached context — kernels are
    never pickled.
    """
    tracer = worker_tracer(trace)
    with use_tracer(tracer):
        ctx, before = _context_for(workload_enc)
        allocation = decode_allocation(allocation_enc)
        wl = ctx.workload
        result: object
        with tracer.span(
            "parallel.chunk",
            kind="scan",
            size=len(t1_tids),
            find_all=find_all,
            pid=os.getpid(),
        ):
            if find_all:
                found = []
                for tid in t1_tids:
                    with tracer.span("robustness.scan_t1", t1=tid):
                        specs = tuple(
                            encode_spec(spec)
                            for spec in _scan_t1(
                                ctx, allocation, wl[tid], method
                            )
                        )
                    if specs:
                        found.append((tid, specs))
                result = tuple(found)
            else:
                result = None
                for tid in t1_tids:
                    with tracer.span("robustness.scan_t1", t1=tid):
                        spec = next(
                            _scan_t1(ctx, allocation, wl[tid], method), None
                        )
                    if spec is not None:
                        result = (tid, encode_spec(spec))
                        break
    delta = _stats_delta(before, ctx.stats.as_dict())
    return result, delta, encode_span_batch(tracer)


def probe_chunk(
    workload_enc: WorkloadEncoding,
    start_enc: AllocationEncoding,
    probes: Tuple[Tuple[int, Tuple[str, ...]], ...],
    trace: bool = False,
    method: str = "bitset",
) -> Tuple[Dict[int, str], Dict[str, int], SpanBatch]:
    """Algorithm 2's independent downgrade probes for a chunk of transactions.

    Each probe ``(tid, levels)`` finds the lowest of ``levels`` (ascending,
    all below ``start[tid]``) such that ``start[tid -> level]`` stays
    robust; ``start`` must be robust (Algorithm 2 starts from ``A_SSI`` /
    a previously verified ``A_SI``).  Each candidate is one step below
    ``start``, so each probe is the sequential refinement's scoped
    existence probe (``_probe_robust`` with ``delta_tid=tid``).

    Returns ``{tid: chosen-level-name}`` for the chunk; with ``trace``
    the chunk and each downgrade probe are shipped back as spans.
    """
    tracer = worker_tracer(trace)
    with use_tracer(tracer):
        ctx, before = _context_for(workload_enc)
        start = decode_allocation(start_enc)
        chosen: Dict[int, str] = {}
        with tracer.span(
            "parallel.chunk", kind="probe", size=len(probes), pid=os.getpid()
        ):
            for tid, level_names in probes:
                final = start[tid].name
                with tracer.span("allocation.refine_txn", tid=tid) as txn_span:
                    for name in level_names:
                        candidate = start.with_level(tid, name)
                        with tracer.span(
                            "allocation.probe", tid=tid, level=name
                        ):
                            lowered = _probe_robust(
                                ctx.workload, candidate, method, ctx,
                                delta_tid=tid,
                            )
                        if lowered:
                            final = name
                            break
                    txn_span.set(level=final)
                chosen[tid] = final
    delta = _stats_delta(before, ctx.stats.as_dict())
    return chosen, delta, encode_span_batch(tracer)
