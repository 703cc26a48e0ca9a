"""Trace analysis: span forests aggregated into profile trees.

An exported ``--trace`` file is a flat list of spans in completion
order.  This module turns it back into the call structure and answers
the questions a performance investigation actually asks:

* **where does the time go?** — the *profile tree* groups spans by name
  (optionally refined by salient attributes like ``t1`` or ``shard``)
  along their ancestry path, with call counts, *inclusive* time (the
  span's own duration) and *exclusive/self* time (inclusive minus the
  time spent in child spans, clamped at zero);
* **what bounds the wall clock?** — the *critical path* descends from
  the root through the heaviest child at every level;
* **what does the flamegraph look like?** — :func:`folded_stacks`
  exports Brendan-Gregg-style folded stacks (``a;b;c <self-µs>``),
  directly consumable by ``flamegraph.pl``, speedscope, or any folded
  stack tooling.

The profile reads only durations and parentage, never ``start_s``, so
traces written by older builds, whose worker spans carry their own
``origin`` and clock, aggregate the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .tracer import validate_trace_file

__all__ = [
    "ProfileNode",
    "build_profile",
    "critical_path",
    "folded_stacks",
    "inclusive_totals",
    "profile_trace_file",
    "render_critical_path",
    "render_profile",
    "render_trace_report",
]

#: The display key of the synthetic root holding the trace's root spans.
ROOT_KEY = "(trace)"


@dataclass
class ProfileNode:
    """One node of the aggregated profile tree.

    Attributes:
        key: display key — the span name, plus the selected grouping
            attributes (e.g. ``"robustness.scan_t1 [t1=3]"``).
        name: the bare span name (aggregation across the tree sums by
            this, regardless of grouping attributes).
        count: spans aggregated into this node.
        inclusive_s: summed span durations (wall time inside the span,
            children included).
        self_s: summed exclusive time — duration minus child durations,
            clamped at zero per span.
        children: child nodes by display key, in first-seen order.
    """

    key: str
    name: str
    count: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    children: Dict[str, "ProfileNode"] = field(default_factory=dict)

    def walk(self) -> "List[Tuple[int, ProfileNode]]":
        """The subtree as ``(depth, node)`` pairs in DFS pre-order."""
        out: List[Tuple[int, ProfileNode]] = []
        stack: List[Tuple[int, ProfileNode]] = [(0, self)]
        while stack:
            depth, node = stack.pop()
            out.append((depth, node))
            for child in reversed(list(node.children.values())):
                stack.append((depth + 1, child))
        return out


def _span_key(span: Dict[str, object], key_attrs: Sequence[str]) -> str:
    """The tree key of one span: its name plus the selected attributes.

    ``origin`` is a span field, not an attribute, but is accepted as a
    grouping key, which splits the worker spans of traces written by
    older builds per process; every other key is looked up in the
    span's ``attrs``.  Attributes absent on a span are skipped, so
    grouping by ``t1`` refines only the spans that carry it.
    """
    if not key_attrs:
        return str(span["name"])
    parts = []
    attrs = span["attrs"]
    for key in key_attrs:
        value = span["origin"] if key == "origin" else attrs.get(key)
        if value is not None:
            parts.append(f"{key}={value}")
    if not parts:
        return str(span["name"])
    label = " ".join(parts).replace(";", ",")
    return f"{span['name']} [{label}]"


def _forest(
    spans: Sequence[Dict[str, object]],
) -> Tuple[List[int], Dict[int, List[int]]]:
    """Concrete root positions and children lists (by span position)."""
    position_of = {span["span_id"]: i for i, span in enumerate(spans)}
    children: Dict[int, List[int]] = {i: [] for i in range(len(spans))}
    roots: List[int] = []
    for position, span in enumerate(spans):
        parent = span["parent_id"]
        if parent is None or parent not in position_of:
            roots.append(position)
        else:
            children[position_of[parent]].append(position)
    return roots, children


def build_profile(
    trace: Dict[str, object], key_attrs: Sequence[str] = ()
) -> ProfileNode:
    """Aggregate a validated trace dict into a profile tree.

    The returned synthetic root (key :data:`ROOT_KEY`) holds one child
    subtree per distinct root-span key; its ``inclusive_s`` is the sum
    of the root spans' durations and its ``self_s`` is zero.

    ``key_attrs`` refines grouping below the span name — e.g.
    ``("t1",)`` splits the per-``T_1`` scans and ``("shard",)`` the
    per-component work.

    Examples:
        >>> trace = {"spans": [
        ...     {"span_id": 2, "parent_id": 1, "name": "inner",
        ...      "start_s": 0.1, "duration_s": 0.2, "origin": "main", "attrs": {}},
        ...     {"span_id": 1, "parent_id": None, "name": "outer",
        ...      "start_s": 0.0, "duration_s": 0.5, "origin": "main", "attrs": {}},
        ... ]}
        >>> root = build_profile(trace)
        >>> outer = root.children["outer"]
        >>> round(outer.self_s, 3), round(outer.children["inner"].inclusive_s, 3)
        (0.3, 0.2)
    """
    spans = trace["spans"]
    roots, children = _forest(spans)
    root = ProfileNode(key=ROOT_KEY, name=ROOT_KEY)

    def aggregate(position: int, parent_node: ProfileNode) -> None:
        span = spans[position]
        key = _span_key(span, key_attrs)
        node = parent_node.children.get(key)
        if node is None:
            node = parent_node.children[key] = ProfileNode(
                key=key, name=str(span["name"])
            )
        duration = float(span["duration_s"])
        child_total = sum(
            float(spans[k]["duration_s"]) for k in children[position]
        )
        node.count += 1
        node.inclusive_s += duration
        node.self_s += max(0.0, duration - child_total)
        for child_position in children[position]:
            aggregate(child_position, node)

    for position in roots:
        aggregate(position, root)
    root.count = len(roots)
    root.inclusive_s = sum(float(spans[p]["duration_s"]) for p in roots)
    return root


def profile_trace_file(
    path: Union[str, Path], key_attrs: Sequence[str] = ()
) -> Tuple[Dict[str, object], ProfileNode]:
    """Load + validate a ``--trace`` export and build its profile tree."""
    data = validate_trace_file(path)
    return data, build_profile(data, key_attrs=key_attrs)


def inclusive_totals(root: ProfileNode) -> Dict[str, float]:
    """Summed inclusive time per *span name* across the whole tree.

    Every concrete span contributes its duration exactly once wherever
    its node landed, so these totals equal the trace's per-name totals
    (:func:`~repro.observability.phase_totals`) to float tolerance —
    the consistency contract ``repro trace report`` is tested against.
    """
    totals: Dict[str, float] = {}
    for depth, node in root.walk():
        if depth == 0:
            continue
        totals[node.name] = totals.get(node.name, 0.0) + node.inclusive_s
    return totals


def critical_path(root: ProfileNode) -> List[ProfileNode]:
    """The heaviest root-to-leaf chain of the profile tree.

    At every level the child with the largest inclusive time is taken,
    pointing at the slowest phase.  The synthetic root is excluded.
    """
    path: List[ProfileNode] = []
    node = root
    while node.children:
        node = max(node.children.values(), key=lambda child: child.inclusive_s)
        path.append(node)
    return path


def folded_stacks(root: ProfileNode) -> str:
    """The profile as Brendan-Gregg folded stacks.

    One line per tree node with non-zero self time:
    ``rootkey;childkey;... <self-microseconds>`` — the input format of
    ``flamegraph.pl`` and compatible viewers.  Frames are node keys, so
    grouping attributes chosen at build time become flamegraph frames.
    """
    lines: List[str] = []

    def emit(node: ProfileNode, stack: Tuple[str, ...]) -> None:
        frames = stack + (node.key,)
        value = int(round(node.self_s * 1e6))
        if value > 0:
            lines.append(";".join(frames) + f" {value}")
        for child in node.children.values():
            emit(child, frames)

    for child in root.children.values():
        emit(child, ())
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def render_profile(
    root: ProfileNode, max_depth: Optional[int] = None
) -> str:
    """The profile tree as an aligned text block (one line per node)."""
    rows: List[Tuple[str, ProfileNode]] = []
    for depth, node in root.walk():
        if depth == 0:
            continue
        if max_depth is not None and depth > max_depth:
            continue
        rows.append(("  " * (depth - 1) + node.key, node))
    if not rows:
        return "  (no spans)"
    width = max(len(label) for label, _node in rows)
    lines = [
        f"  {'span':<{width}}  {'count':>6}  {'inclusive':>12}  {'self':>12}"
    ]
    for label, node in rows:
        lines.append(
            f"  {label:<{width}}  {node.count:>6}"
            f"  {_fmt_ms(node.inclusive_s):>12}  {_fmt_ms(node.self_s):>12}"
        )
    return "\n".join(lines)


def render_critical_path(root: ProfileNode) -> str:
    """The critical path as indented ``name  inclusive`` lines."""
    path = critical_path(root)
    if not path:
        return "  (no spans)"
    lines = []
    for depth, node in enumerate(path):
        lines.append(
            f"  {'  ' * depth}{node.key}  {_fmt_ms(node.inclusive_s)}"
            + (f"  (x{node.count})" if node.count > 1 else "")
        )
    return "\n".join(lines)


def render_trace_report(
    trace: Dict[str, object],
    root: ProfileNode,
    path: Optional[str] = None,
    max_depth: Optional[int] = None,
    hot: int = 5,
) -> str:
    """The full ``repro trace report`` page for one exported trace."""
    spans = trace["spans"]
    origins = sorted({span["origin"] for span in spans})
    header = (
        f"Trace{f' {path}' if path else ''}:"
        f" {len(spans)} spans, {len(origins)} origin(s)"
        f" ({', '.join(origins) if origins else 'none'})"
    )
    lines = [header, "", "Profile tree:", render_profile(root, max_depth)]
    lines += ["", "Critical path (heaviest chain):", render_critical_path(root)]
    flat: Dict[str, ProfileNode] = {}
    for depth, node in root.walk():
        if depth == 0:
            continue
        agg = flat.get(node.name)
        if agg is None:
            agg = flat[node.name] = ProfileNode(key=node.name, name=node.name)
        agg.count += node.count
        agg.inclusive_s += node.inclusive_s
        agg.self_s += node.self_s
    if flat:
        hottest = sorted(
            flat.values(), key=lambda node: node.self_s, reverse=True
        )[:hot]
        lines += ["", f"Hot phases (by self time, top {len(hottest)}):"]
        width = max(len(node.name) for node in hottest)
        for node in hottest:
            lines.append(
                f"  {node.name:<{width}}  self={_fmt_ms(node.self_s):>12}"
                f"  inclusive={_fmt_ms(node.inclusive_s):>12}"
                f"  count={node.count}"
            )
    return "\n".join(lines)
