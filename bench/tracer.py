"""Outside-in spans: recorded by the benchmark around its calls into the program.

Spans stay in memory as ``(name, start_ns, end_ns, parent, op)`` rows and
are written out once the run ends.  A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

Span = Tuple[str, int, int, Optional[int], Optional[int]]


class Tracer:
    """A single-threaded span recorder.

    ``missing`` names the spans whose program function could not be
    called (removed or re-signatured); their metrics read ``missing``.
    """

    def __init__(self) -> None:
        self._rows: List[list] = []
        self._stack: List[int] = []
        self.missing: Set[str] = set()

    def call(self, name: str, fn: Optional[Callable[..., Any]], *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside span ``name``; ``None`` if ``fn`` is gone."""
        if fn is None:
            self.missing.add(name)
            return None
        try:
            with self.span(name):
                return fn(*args, **kwargs)
        except (TypeError, AttributeError):
            self.missing.add(name)
            return None

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        """Time the body as span ``name``; ``op`` defaults to the parent's."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self._rows[parent][4]
        row = [name, time.perf_counter_ns(), 0, parent, op]
        self._stack.append(len(self._rows))
        self._rows.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter_ns()
            self._stack.pop()

    @property
    def spans(self) -> List[Span]:
        return [tuple(row) for row in self._rows]  # type: ignore[misc]

    def summary(self) -> Dict[str, Dict[str, float]]:
        return summarize(self.spans, self.missing)


def self_times(spans: Sequence[Span]) -> List[int]:
    """Per span: duration minus the union of its children's intervals (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def summarize(spans: Sequence[Span], missing: Set[str] = frozenset()) -> Dict[str, Dict[str, float]]:
    """Per span name (except ``missing`` ones): call count, total and self ms."""
    table: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _parent, _op), own in zip(spans, self_times(spans)):
        if name in missing:
            continue
        row = table.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (end - start) / 1e6
        row["self_ms"] += own / 1e6
    return table
