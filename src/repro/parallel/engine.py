"""Parent-side orchestration of the process-pool engine.

The engine keeps one persistent :class:`~concurrent.futures.ProcessPoolExecutor`
per process (grown on demand, torn down at interpreter exit or via
:func:`shutdown_pool`), so repeated calls — a refinement issuing dozens of
checks, a property-test suite issuing hundreds — pay the worker spawn cost
once.  Work travels as the compact text encodings of
:mod:`repro.parallel.encoding`; results and per-task
:class:`~repro.core.context.ContextStats` deltas travel back and are merged
into the caller's context so ``--stats`` totals stay truthful.

Determinism contract (enforced by the equivalence test suite): every
function here returns results *bit-identical* to its sequential
counterpart in :mod:`repro.core` —

* :func:`check_robustness_parallel` returns the same first counterexample
  Algorithm 1 finds sequentially: chunks are contiguous slices of the
  ascending-tid ``T_1`` order, each worker stops at its chunk's first
  witness, and the parent keeps the witness from the *earliest* chunk
  while cancelling chunks that can only contain later ``T_1`` candidates.
* :func:`enumerate_specs_parallel` concatenates fully-drained chunks in
  chunk order, reproducing the sequential ascending-``T_1`` enumeration.
* :func:`refine_allocation_parallel` exploits that Algorithm 2's
  downgrade probes are independent: for a robust ``start``, transaction
  ``t`` ends at the lowest level ``L`` with ``start[t -> L]`` robust, and
  the pointwise combination of these per-transaction answers equals the
  sequential refinement's result (the set of robust allocations above the
  optimum is closed under pointwise minimum — Proposition 4.1).  Each
  probe is the sequential refinement's own delta-scoped probe (the scan
  of :func:`repro.core.robustness.check_robustness_delta`), so the pool
  adds concurrency and warm worker caches, not a cheaper scan.

If the pool breaks (a worker killed by the OS, an unpicklable object —
never expected with our encodings), the engine falls back to the
sequential path with a :class:`RuntimeWarning` instead of failing the
analysis.

When the parent traces (``current_tracer().recording`` — enabled and
not inside a depth-capped subtree), every task is
submitted with ``trace=True``: workers record their chunk spans into
per-task tracers and ship the batches back with their results; the
parent :meth:`~repro.observability.Tracer.absorb`\\ s each batch under
the span that dispatched it.  Worker spans keep their own origin
(``worker-<pid>``), so their start offsets are only comparable within
one worker — durations and parentage are origin-independent.  With
tracing off the flag is ``False`` and workers ship empty batches; the
results themselves are unaffected either way.
"""

from __future__ import annotations

import atexit
import os
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.context import AnalysisContext
from ..core.isolation import Allocation, IsolationLevel, POSTGRES_LEVELS
from ..core.robustness import (
    Counterexample,
    RobustnessResult,
    _spec_to_counterexample,
)
from ..core.split_schedule import SplitScheduleSpec
from ..core.workload import Workload, WorkloadError
from ..observability import current_tracer
from .encoding import decode_spec, encode_allocation, encode_workload
from .worker import probe_chunk, scan_chunk

__all__ = [
    "PARALLEL_AUTO_THRESHOLD",
    "check_robustness_parallel",
    "enumerate_specs_parallel",
    "enumerate_specs_shards_parallel",
    "first_spec_shards_parallel",
    "optimal_allocation_parallel",
    "refine_allocation_parallel",
    "refine_allocation_shards_parallel",
    "resolve_jobs",
    "shutdown_pool",
]

#: Below this many transactions ``n_jobs="auto"`` stays sequential —
#: pool dispatch costs more than the whole analysis on small workloads.
PARALLEL_AUTO_THRESHOLD = 16

#: Upper bound on workers chosen by the auto heuristic (explicit
#: ``n_jobs`` values are always honoured as given).
PARALLEL_MAX_AUTO_JOBS = 8

_executor: Optional[ProcessPoolExecutor] = None
_executor_workers = 0


def resolve_jobs(n_jobs: Optional[int], workload_size: int) -> int:
    """The effective worker count for an ``n_jobs`` argument.

    ``1`` (the default everywhere) means the in-process sequential path.
    ``None`` or any negative value selects the auto heuristic: sequential
    below :data:`PARALLEL_AUTO_THRESHOLD` transactions, otherwise
    ``min(os.cpu_count(), PARALLEL_MAX_AUTO_JOBS)``.  Explicit values
    ``>= 2`` are honoured regardless of workload size.

    Examples:
        >>> resolve_jobs(1, 1000)
        1
        >>> resolve_jobs(4, 3)
        4
        >>> resolve_jobs(None, PARALLEL_AUTO_THRESHOLD - 1)
        1
    """
    if n_jobs == 0:
        raise ValueError("n_jobs must be >= 1, None or negative (auto)")
    if n_jobs is None or n_jobs < 0:
        if workload_size < PARALLEL_AUTO_THRESHOLD:
            return 1
        return max(1, min(os.cpu_count() or 1, PARALLEL_MAX_AUTO_JOBS))
    return n_jobs


def _get_executor(n_jobs: int) -> ProcessPoolExecutor:
    """The persistent pool, grown to at least ``n_jobs`` workers."""
    global _executor, _executor_workers
    if _executor is None or _executor_workers < n_jobs:
        if _executor is not None:
            _executor.shutdown(wait=False, cancel_futures=True)
        _executor = ProcessPoolExecutor(max_workers=n_jobs)
        _executor_workers = n_jobs
    return _executor


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (no-op when none is running)."""
    global _executor, _executor_workers
    if _executor is not None:
        _executor.shutdown(wait=False, cancel_futures=True)
        _executor = None
        _executor_workers = 0


atexit.register(shutdown_pool)


def _broken_pool_fallback(exc: BrokenProcessPool) -> None:
    """Reset the pool and warn that the call degrades to sequential."""
    warnings.warn(
        f"parallel engine pool broke ({exc}); falling back to the "
        "sequential engine for this call",
        RuntimeWarning,
        stacklevel=3,
    )
    shutdown_pool()


def _contiguous_chunks(
    items: Sequence[int], n_chunks: int
) -> List[Tuple[int, ...]]:
    """Split ``items`` into at most ``n_chunks`` contiguous runs."""
    n_chunks = min(n_chunks, len(items))
    if n_chunks <= 1:
        return [tuple(items)] if items else []
    size = -(-len(items) // n_chunks)  # ceil division
    return [tuple(items[i : i + size]) for i in range(0, len(items), size)]


def _round_robin_chunks(items: Sequence, n_chunks: int) -> List[tuple]:
    """Deal ``items`` into at most ``n_chunks`` balanced buckets."""
    n_chunks = min(n_chunks, len(items))
    if n_chunks <= 1:
        return [tuple(items)] if items else []
    buckets: List[list] = [[] for _ in range(n_chunks)]
    for i, item in enumerate(items):
        buckets[i % n_chunks].append(item)
    return [tuple(bucket) for bucket in buckets]


def _resolve_context(
    workload: Workload, context: Optional[AnalysisContext]
) -> AnalysisContext:
    if context is None:
        return AnalysisContext(workload)
    context.ensure(workload)
    return context


def check_robustness_parallel(
    workload: Workload,
    allocation: Allocation,
    n_jobs: int = 2,
    context: Optional[AnalysisContext] = None,
    method: str = "bitset",
) -> RobustnessResult:
    """Algorithm 1 with the per-``T_1`` searches fanned out over workers.

    Returns exactly what ``check_robustness(..., n_jobs=1)`` returns —
    in particular the *same* counterexample: the one with the smallest
    ``T_1`` id, found first in the sequential scan.  On a witness the
    parent cancels every pending chunk that could only contain later
    ``T_1`` candidates and keeps draining earlier ones, so a late chunk's
    witness never shadows an earlier chunk's.
    """
    if not allocation.covers(workload):
        raise WorkloadError("allocation does not cover the workload")
    ctx = _resolve_context(workload, context)
    ctx.record_check()
    tids = workload.tids
    if not tids:
        return RobustnessResult(True)
    tracer = current_tracer()
    with tracer.span(
        "robustness.check",
        transactions=len(workload),
        jobs=n_jobs,
        parallel=True,
    ) as check_span:
        chunks = _contiguous_chunks(tids, max(2, n_jobs))
        try:
            with tracer.span(
                "parallel.dispatch", chunks=len(chunks), jobs=n_jobs
            ):
                wl_enc = encode_workload(workload)
                alloc_enc = encode_allocation(allocation)
                executor = _get_executor(n_jobs)
                futures: Dict[Future, int] = {
                    executor.submit(
                        scan_chunk, wl_enc, alloc_enc, chunk, False,
                        tracer.recording, method,
                    ): i
                    for i, chunk in enumerate(chunks)
                }
            best: Optional[Tuple[int, int, tuple]] = None  # (chunk, t1, spec)
            pending = set(futures)
            with tracer.span("parallel.merge", chunks=len(chunks)):
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures[future]
                        if future.cancelled():
                            continue
                        result, delta, batch = future.result()
                        ctx.stats.merge(delta)
                        tracer.absorb(batch, parent_id=check_span.span_id)
                        if result is not None and (
                            best is None or index < best[0]
                        ):
                            best = (index, result[0], result[1])
                            for other, other_index in futures.items():
                                if other_index > index:
                                    other.cancel()
                            pending = {f for f in pending if not f.cancelled()}
        except BrokenProcessPool as exc:
            _broken_pool_fallback(exc)
            from ..core.robustness import check_robustness

            check_span.set(fallback=True)
            return check_robustness(
                workload, allocation, context=ctx, n_jobs=1, method=method
            )
        check_span.set(robust=best is None)
    if best is None:
        return RobustnessResult(True)
    spec = decode_spec(best[2])
    return RobustnessResult(
        False, _spec_to_counterexample(spec, workload, allocation, True)
    )


def enumerate_specs_parallel(
    workload: Workload,
    allocation: Allocation,
    n_jobs: int = 2,
    context: Optional[AnalysisContext] = None,
    method: str = "bitset",
) -> Iterator[SplitScheduleSpec]:
    """Every counterexample chain, in the sequential enumeration order.

    All chunks are drained (no short-circuit) and concatenated in chunk
    order, which is the ascending-``T_1`` order of the sequential
    :func:`repro.core.robustness.enumerate_counterexamples`.  Does not
    count a robustness check itself — the caller owns
    :meth:`~repro.core.context.AnalysisContext.record_check`.
    """
    if not allocation.covers(workload):
        raise WorkloadError("allocation does not cover the workload")
    ctx = _resolve_context(workload, context)
    tids = workload.tids
    if not tids:
        return
    tracer = current_tracer()
    chunks = _contiguous_chunks(tids, max(2, n_jobs))
    try:
        with tracer.span(
            "parallel.dispatch", chunks=len(chunks), jobs=n_jobs, survey=True
        ):
            wl_enc = encode_workload(workload)
            alloc_enc = encode_allocation(allocation)
            executor = _get_executor(n_jobs)
            futures = [
                executor.submit(
                    scan_chunk, wl_enc, alloc_enc, chunk, True,
                    tracer.recording, method,
                )
                for chunk in chunks
            ]
        collected = []
        with tracer.span("parallel.merge", chunks=len(chunks)) as merge_span:
            for future in futures:  # chunk order, not completion order
                result, delta, batch = future.result()
                ctx.stats.merge(delta)
                tracer.absorb(batch, parent_id=merge_span.span_id)
                collected.append(result)
    except BrokenProcessPool as exc:
        _broken_pool_fallback(exc)
        from ..core.robustness import _scan_t1

        for t1 in workload:
            yield from _scan_t1(ctx, allocation, t1, method)
        return
    for chunk_result in collected:
        for _t1_tid, spec_encs in chunk_result:
            for spec_enc in spec_encs:
                yield decode_spec(spec_enc)


def refine_allocation_parallel(
    workload: Workload,
    start: Allocation,
    levels: Sequence[IsolationLevel],
    n_jobs: int = 2,
    context: Optional[AnalysisContext] = None,
    floors: Optional[Dict[int, IsolationLevel]] = None,
    method: str = "bitset",
) -> Allocation:
    """Algorithm 2's refinement with independent per-transaction probes.

    ``start`` must be robust (as in the sequential
    :func:`repro.core.allocation.refine_allocation` — Algorithm 2 starts
    from ``A_SSI``, or from a verified ``A_SI`` for the Oracle class).
    Each transaction's probes run against ``start`` with a *single* level
    changed, so chunks are independent and every check can use the
    delta-restricted scan; the combined result equals the sequential
    refinement's unique optimum below ``start`` (Propositions 4.1/4.2).

    ``floors`` optionally skips probe levels below a known per-transaction
    lower bound (:class:`~repro.core.incremental.AllocationManager` passes
    the previous optimum, which the new optimum dominates pointwise) — a
    pure acceleration, never changing the result.
    """
    if not start.covers(workload):
        raise WorkloadError("allocation does not cover the workload")
    ordered = tuple(sorted(set(levels)))
    if not ordered:
        raise ValueError("the class of isolation levels must not be empty")
    ctx = _resolve_context(workload, context)
    probes = []
    for tid in workload.tids:
        floor = floors.get(tid) if floors is not None else None
        below = tuple(
            level.name
            for level in ordered
            if level < start[tid] and (floor is None or level >= floor)
        )
        if below:
            probes.append((tid, below))
    if not probes:
        return start
    tracer = current_tracer()
    with tracer.span(
        "allocation.refine", transactions=len(workload), jobs=n_jobs
    ) as refine_span:
        chunks = _round_robin_chunks(probes, max(2, n_jobs))
        chosen: Dict[int, str] = {}
        try:
            with tracer.span(
                "parallel.dispatch", chunks=len(chunks), jobs=n_jobs
            ):
                wl_enc = encode_workload(workload)
                start_enc = encode_allocation(start)
                executor = _get_executor(n_jobs)
                futures = [
                    executor.submit(
                        probe_chunk, wl_enc, start_enc, chunk,
                        tracer.recording, method,
                    )
                    for chunk in chunks
                ]
            with tracer.span("parallel.merge", chunks=len(chunks)):
                for future in futures:
                    levels_for, delta, batch = future.result()
                    ctx.stats.merge(delta)
                    tracer.absorb(batch, parent_id=refine_span.span_id)
                    chosen.update(levels_for)
        except BrokenProcessPool as exc:
            _broken_pool_fallback(exc)
            from ..core.allocation import refine_allocation

            refine_span.set(fallback=True)
            return refine_allocation(
                workload, start, ordered, context=ctx, method=method
            )
    return Allocation(
        {
            tid: chosen.get(tid, start[tid].name)
            for tid in workload.tids
        }
    )


def _shard_task_encodings(
    shard_context, allocation: Allocation, index: int
) -> Tuple[object, object]:
    """The (workload, allocation) encodings for one shard's task."""
    wl_enc = encode_workload(shard_context.shard_workload(index))
    alloc_enc = encode_allocation(
        shard_context.shard_allocation(allocation, index)
    )
    return wl_enc, alloc_enc


def first_spec_shards_parallel(
    workload: Workload,
    allocation: Allocation,
    shard_context,
    n_jobs: int = 2,
    method: str = "bitset",
) -> Optional[Tuple[int, SplitScheduleSpec]]:
    """The earliest-``T_1`` witness with whole shards as the unit of work.

    One :func:`~repro.parallel.worker.scan_chunk` task per conflict
    component (``shard_context`` is a
    :class:`~repro.core.sharding.ShardedContext`), each over its own
    sub-workload encoding — workers never see, and never coordinate
    over, other components.  The winning witness is the one with the
    globally smallest ``T_1`` id; on a witness, shards whose smallest
    member exceeds it are cancelled (they can only contain later
    candidates).  Returns ``(t1_tid, spec)`` or ``None`` — bit-identical
    to the sequential sharded scan, hence to the monolithic one.
    """
    plan = shard_context.plan
    if not plan.shards:
        return None
    tracer = current_tracer()
    try:
        with tracer.span(
            "parallel.dispatch",
            chunks=len(plan.shards),
            jobs=n_jobs,
            shards=True,
        ):
            executor = _get_executor(n_jobs)
            futures: Dict[Future, int] = {}
            for index, shard in enumerate(plan.shards):
                wl_enc, alloc_enc = _shard_task_encodings(
                    shard_context, allocation, index
                )
                futures[
                    executor.submit(
                        scan_chunk, wl_enc, alloc_enc, shard, False,
                        tracer.recording, method,
                    )
                ] = index
        best: Optional[Tuple[int, tuple]] = None  # (t1_tid, spec_enc)
        pending = set(futures)
        with tracer.span(
            "parallel.merge", chunks=len(plan.shards)
        ) as merge_span:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    if future.cancelled():
                        continue
                    result, delta, batch = future.result()
                    shard_context.stats.merge(delta)
                    tracer.absorb(batch, parent_id=merge_span.span_id)
                    if result is not None and (
                        best is None or result[0] < best[0]
                    ):
                        best = result
                        for other, other_index in futures.items():
                            if plan.shards[other_index][0] > best[0]:
                                other.cancel()
                        pending = {f for f in pending if not f.cancelled()}
    except BrokenProcessPool as exc:
        _broken_pool_fallback(exc)
        from ..core.sharding import _first_spec_sequential

        return _first_spec_sequential(shard_context, allocation, method)
    if best is None:
        return None
    return best[0], decode_spec(best[1])


def enumerate_specs_shards_parallel(
    workload: Workload,
    allocation: Allocation,
    shard_context,
    n_jobs: int = 2,
    method: str = "bitset",
) -> Iterator[SplitScheduleSpec]:
    """Every counterexample chain, shard tasks re-merged by ``T_1`` id.

    All shard surveys are drained; their per-``T_1`` results carry the
    candidate's global id, so sorting the concatenation by that id
    reproduces the sequential ascending-``T_1`` enumeration exactly
    (shard tid sets are disjoint, making the order total).
    """
    plan = shard_context.plan
    if not plan.shards:
        return
    tracer = current_tracer()
    try:
        with tracer.span(
            "parallel.dispatch",
            chunks=len(plan.shards),
            jobs=n_jobs,
            shards=True,
            survey=True,
        ):
            executor = _get_executor(n_jobs)
            futures = []
            for index, shard in enumerate(plan.shards):
                wl_enc, alloc_enc = _shard_task_encodings(
                    shard_context, allocation, index
                )
                futures.append(
                    executor.submit(
                        scan_chunk, wl_enc, alloc_enc, shard, True,
                        tracer.recording, method,
                    )
                )
        collected: List[Tuple[int, tuple]] = []
        with tracer.span(
            "parallel.merge", chunks=len(plan.shards)
        ) as merge_span:
            for future in futures:
                result, delta, batch = future.result()
                shard_context.stats.merge(delta)
                tracer.absorb(batch, parent_id=merge_span.span_id)
                collected.extend(result)
    except BrokenProcessPool as exc:
        _broken_pool_fallback(exc)
        from ..core.sharding import enumerate_specs_sharded

        yield from enumerate_specs_sharded(
            workload, allocation, method=method, context=shard_context,
            n_jobs=1,
        )
        return
    collected.sort(key=lambda entry: entry[0])
    for _t1_tid, spec_encs in collected:
        for spec_enc in spec_encs:
            yield decode_spec(spec_enc)


def refine_allocation_shards_parallel(
    workload: Workload,
    start: Allocation,
    levels: Sequence[IsolationLevel],
    shard_context,
    n_jobs: int = 2,
    floors: Optional[Dict[int, IsolationLevel]] = None,
    method: str = "bitset",
) -> Allocation:
    """Algorithm 2's refinement with one probe task per conflict component.

    Each shard's downgrade probes run against its own sub-workload (the
    delta-restricted scans never needed other components anyway), with
    no cross-chunk coordination.  The composed result is the unique
    global optimum below ``start`` — identical to the monolithic
    refinement.
    """
    if not start.covers(workload):
        raise WorkloadError("allocation does not cover the workload")
    ordered = tuple(sorted(set(levels)))
    if not ordered:
        raise ValueError("the class of isolation levels must not be empty")
    plan = shard_context.plan
    shard_probes: List[Tuple[int, Tuple[Tuple[int, Tuple[str, ...]], ...]]] = []
    for index, shard in enumerate(plan.shards):
        probes = []
        for tid in shard:
            floor = floors.get(tid) if floors is not None else None
            below = tuple(
                level.name
                for level in ordered
                if level < start[tid] and (floor is None or level >= floor)
            )
            if below:
                probes.append((tid, below))
        if probes:
            shard_probes.append((index, tuple(probes)))
    if not shard_probes:
        return start
    tracer = current_tracer()
    with tracer.span(
        "allocation.refine",
        transactions=len(workload),
        jobs=n_jobs,
        shards=len(plan),
    ) as refine_span:
        chosen: Dict[int, str] = {}
        try:
            with tracer.span(
                "parallel.dispatch", chunks=len(shard_probes), jobs=n_jobs
            ):
                executor = _get_executor(n_jobs)
                futures = []
                for index, probes in shard_probes:
                    wl_enc, start_enc = _shard_task_encodings(
                        shard_context, start, index
                    )
                    futures.append(
                        executor.submit(
                            probe_chunk, wl_enc, start_enc, probes,
                            tracer.recording, method,
                        )
                    )
            with tracer.span("parallel.merge", chunks=len(shard_probes)):
                for future in futures:
                    levels_for, delta, batch = future.result()
                    shard_context.stats.merge(delta)
                    tracer.absorb(batch, parent_id=refine_span.span_id)
                    chosen.update(levels_for)
        except BrokenProcessPool as exc:
            _broken_pool_fallback(exc)
            from ..core.sharding import refine_allocation_sharded

            refine_span.set(fallback=True)
            return refine_allocation_sharded(
                workload, start, ordered, method=method,
                context=shard_context, n_jobs=1, floors=floors,
            )
    return Allocation(
        {
            tid: chosen.get(tid, start[tid].name)
            for tid in workload.tids
        }
    )


def optimal_allocation_parallel(
    workload: Workload,
    levels: Sequence[IsolationLevel] = POSTGRES_LEVELS,
    n_jobs: int = 2,
    context: Optional[AnalysisContext] = None,
    method: str = "bitset",
) -> Optional[Allocation]:
    """Algorithm 2 end to end on the pool (Theorem 4.3 / Theorem 5.5).

    Same contract as :func:`repro.core.allocation.optimal_allocation`:
    ``None`` exactly when the top of ``levels`` is not SSI and the uniform
    top allocation is not robust (Proposition 5.4); otherwise the unique
    optimum (Proposition 4.2), identical to the sequential result.
    """
    ordered = tuple(sorted(set(levels)))
    if not ordered:
        raise ValueError("the class of isolation levels must not be empty")
    ctx = _resolve_context(workload, context)
    top = ordered[-1]
    start = Allocation.uniform(workload, top)
    if top is not IsolationLevel.SSI and not check_robustness_parallel(
        workload, start, n_jobs=n_jobs, context=ctx, method=method
    ):
        return None
    return refine_allocation_parallel(
        workload, start, ordered, n_jobs=n_jobs, context=ctx, method=method
    )
