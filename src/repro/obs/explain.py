"""EXPLAIN / EXPLAIN ANALYZE: the Join Tree, annotated and rendered.

Two halves:

- **estimation** — plain ``EXPLAIN`` prints each node's rows as the planner
  estimates them (:func:`repro.core.estimate.node_rows`, the number the
  translator ordered the tree by) and pre-plays the executor's broadcast
  rule (:mod:`repro.engine.cluster`) on those estimates;
- **alignment** — :func:`align_spans` matches the span tree a traced
  execution produced (one span per physical operator) back onto the Join
  Tree, recovering each node's *actual* row count and each join's chosen
  strategy, shuffled/broadcast bytes, and recovery charges (``EXPLAIN
  ANALYZE``). Alignment leans on two invariants: the optimizer never
  reorders joins, and :class:`~repro.core.executor.JoinTreeExecutor` folds
  children left-deep in :meth:`~repro.core.join_tree.JoinTreeNode.fold_order`.

:func:`render_join_tree` draws the annotated tree in plain ASCII, one node
block per Join-Tree node with its patterns, priority, estimated vs actual
rows, and the join edge that attaches it to its parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.estimate import join_rows, node_rows
from ..core.join_tree import JoinTree, JoinTreeNode
from ..engine.cluster import broadcast_build, broadcast_threshold, relation_bytes
from .metrics import (
    ENGINE_BROADCAST_BYTES,
    ENGINE_BYTES_SCANNED,
    ENGINE_SHUFFLE_BYTES,
)
from .tracer import Span

#: Span ``op`` values that wrap exactly one operator child and may sit
#: between two joins of the fold (pushed filters, pruning projections, ...).
_UNARY_OPS = ("filter", "project", "explode", "distinct", "aggregate")


# -- runtime alignment --------------------------------------------------------


@dataclass
class JoinEdge:
    """Runtime facts about the join attaching one node to its parent."""

    strategy: str
    on: list[str]
    build: str | None = None
    shuffle_bytes: int = 0
    broadcast_bytes: int = 0
    rows_out: int | None = None
    recovery: dict = field(default_factory=dict)


@dataclass
class NodeRuntime:
    """Runtime facts about one Join-Tree node's own pipeline."""

    rows: int | None = None
    edge: JoinEdge | None = None  # None for the root
    recovery: dict = field(default_factory=dict)


def _operator_children(span: Span) -> list[Span]:
    """Sub-spans that are physical operators (skip optimizer/phase spans)."""
    return [child for child in span.children if "op" in child.attrs]


def _own_counters(span: Span) -> dict:
    """The span's counter deltas minus everything its child operators did."""
    own = dict(span.counters)
    for child in _operator_children(span):
        for name, value in child.counters.items():
            remaining = own.get(name, 0) - value
            if remaining:
                own[name] = remaining
            else:
                own.pop(name, None)
    return own


def _recovery_counters(counters: dict) -> dict:
    """The ``faults.*`` slice of a counter-delta mapping."""
    return {
        name: value for name, value in counters.items()
        if name.startswith("faults.")
    }


def _descend_to_join(span: Span) -> Span | None:
    """Skip through unary wrapper spans down to the next join span."""
    current = span
    while True:
        op = current.attrs.get("op")
        if op in ("join", "cross"):
            return current
        if op not in _UNARY_OPS:
            return None
        operators = _operator_children(current)
        if len(operators) != 1:
            return None
        current = operators[0]


def align_spans(tree: JoinTree, root_span: Span) -> dict[int, NodeRuntime] | None:
    """Map a traced physical execution back onto the Join Tree.

    ``root_span`` is the top physical-operator span of the executed plan
    (query modifiers included — they are skipped as unary wrappers).
    Returns ``{id(node): NodeRuntime}``, or ``None`` when the span tree does
    not have the expected left-deep shape (e.g. OPTIONAL/UNION queries).
    """
    runtime: dict[int, NodeRuntime] = {}
    if _align_node(tree.root, root_span, runtime):
        return runtime
    return None


def _align_node(node: JoinTreeNode, span: Span, runtime: dict[int, NodeRuntime]) -> bool:
    """Recursively unwind the left-deep join fold for one node's subtree."""
    # Children are joined in fold order; the *last* joined child is
    # the outermost Join span, so unwind in reverse.
    order = node.fold_order()
    current: Span | None = span
    for child in reversed(order):
        current = _descend_to_join(current) if current is not None else None
        if current is None:
            return False
        operators = _operator_children(current)
        if len(operators) != 2:
            return False
        left_span, right_span = operators
        own = _own_counters(current)
        edge = JoinEdge(
            strategy=current.attrs.get("strategy", current.attrs["op"]),
            on=list(current.attrs.get("on", ())),
            build=current.attrs.get("build"),
            shuffle_bytes=own.get(ENGINE_SHUFFLE_BYTES, 0),
            broadcast_bytes=own.get(ENGINE_BROADCAST_BYTES, 0),
            rows_out=current.attrs.get("rows_out"),
            recovery=_recovery_counters(own),
        )
        if not _align_node(child, right_span, runtime):
            return False
        runtime[id(child)].edge = edge
        current = left_span
    if current is None:
        return False
    runtime[id(node)] = NodeRuntime(
        rows=current.attrs.get("rows_out"),
        recovery=_recovery_counters(current.counters)
        if not node.children
        else {},
    )
    return True


# -- rendering ----------------------------------------------------------------


def render_span_tree(span: Span, indent: int = 0) -> str:
    """Indented one-line-per-span rendering of a traced physical plan.

    Shows each operator's detail line, output cardinality, and non-zero
    counter deltas — the engine-level half of EXPLAIN ANALYZE (the Join-Tree
    half is :func:`render_join_tree`).
    """
    lines: list[str] = []
    _render_span(span, lines, indent)
    return "\n".join(lines)


def _render_span(span: Span, lines: list[str], indent: int) -> None:
    """Append one span line (and its subtree) to ``lines``."""
    pad = " " * indent
    head = span.attrs.get("detail", span.name)
    line = f"{pad}{head}"
    if "strategy" in span.attrs:
        line += f" [{span.attrs['strategy']}]"
    if "degraded" in span.attrs:
        line += f" [{span.attrs['degraded']}]"
    if "spill_partitions" in span.attrs:
        line += f" [spill: {span.attrs['spill_partitions']} partitions]"
    if "rows_out" in span.attrs:
        line += f"  rows={span.attrs['rows_out']}"
    deltas = []
    for name in (ENGINE_SHUFFLE_BYTES, ENGINE_BROADCAST_BYTES, ENGINE_BYTES_SCANNED):
        value = span.counters.get(name, 0)
        own = value - sum(child.counters.get(name, 0) for child in span.children)
        if own:
            deltas.append(f"{name.split('.', 1)[1]}={_format_bytes(own)}")
    recovery = _recovery_counters(_own_counters(span))
    if recovery:
        deltas.append(f"recovery: {_format_recovery(recovery)}")
    if deltas:
        line += "  (" + "  ".join(deltas) + ")"
    lines.append(line)
    for child in span.children:
        _render_span(child, lines, indent + 2)


def _format_bytes(count: int) -> str:
    """Humanize a byte count (``832 B``, ``1.2 KB``, ``3.4 MB``)."""
    if count < 1024:
        return f"{count} B"
    if count < 1024 * 1024:
        return f"{count / 1024:.1f} KB"
    return f"{count / (1024 * 1024):.1f} MB"


def _format_recovery(recovery: dict) -> str:
    """Compact ``name=value`` rendering of non-zero recovery deltas."""
    parts = []
    for name, value in recovery.items():
        short = name.split(".", 1)[1]
        if isinstance(value, float):
            parts.append(f"{short}={value:.2f}")
        else:
            parts.append(f"{short}={value}")
    return " ".join(parts)


def render_join_tree(
    tree: JoinTree,
    statistics,
    config=None,
    runtime: dict[int, NodeRuntime] | None = None,
) -> str:
    """Draw the (optionally runtime-annotated) Join Tree as ASCII art.

    Each node block shows its kind, priority, estimated rows, and patterns;
    with ``runtime`` (EXPLAIN ANALYZE) nodes gain actual rows and join edges
    gain the executed strategy, shuffled/broadcast bytes, and recovery
    charges. Without it, join edges carry the statistics-predicted strategy
    marked ``(est)``.
    """
    lines: list[str] = []
    _render_node(tree.root, statistics, config, runtime, lines, indent=0)
    return "\n".join(lines)


def _estimated_rows(node: JoinTreeNode, statistics) -> int:
    """The planner's row estimate of the node's own sub-query, rounded."""
    return round(node_rows(node, statistics))


def _node_width(node: JoinTreeNode) -> int:
    """Number of variable columns the node's sub-query outputs."""
    return max(1, len(node.variables))


def _render_node(
    node: JoinTreeNode,
    statistics,
    config,
    runtime: dict[int, NodeRuntime] | None,
    lines: list[str],
    indent: int,
) -> int:
    """Append one node block (and its children) to ``lines``.

    Returns the estimated rows flowing *out* of the node's whole subtree,
    which the parent uses to predict its next join strategy.
    """
    pad = " " * indent
    est = _estimated_rows(node, statistics)
    info = runtime.get(id(node)) if runtime is not None else None

    head = f"{pad}{node.label()}  priority={node.priority:.3f}  est={est} rows"
    if info is not None and info.rows is not None:
        head += f"  act={info.rows} rows"
    if info is not None and info.recovery:
        head += f"  [recovery: {_format_recovery(info.recovery)}]"
    lines.append(head)
    for pattern in node.patterns:
        lines.append(f"{pad} |  {pattern}")

    # Fold the children exactly as the executor will (fold order),
    # accumulating the estimated left-side cardinality.
    accumulated_est = est
    accumulated_width = _node_width(node)
    order = node.fold_order()
    for child in order:
        child_info = runtime.get(id(child)) if runtime is not None else None
        child_edge = child_info.edge if child_info is not None else None
        shared = sorted(
            {v.name for v in node.variables} & {v.name for v in child.variables}
        )
        if child_edge is not None:
            strategy = child_edge.strategy
            on = child_edge.on or shared
            join_line = f"{pad} +- join on {on}: {strategy}"
            if child_edge.build:
                join_line += f" (build={child_edge.build})"
            if child_edge.broadcast_bytes:
                join_line += f"  broadcast={_format_bytes(child_edge.broadcast_bytes)}"
            if child_edge.shuffle_bytes:
                join_line += f"  shuffle={_format_bytes(child_edge.shuffle_bytes)}"
            if child_edge.rows_out is not None:
                join_line += f"  out={child_edge.rows_out} rows"
            if child_edge.recovery:
                join_line += f"  [recovery: {_format_recovery(child_edge.recovery)}]"
        else:
            if not shared:
                strategy = "cartesian"
            elif config is None:
                strategy = "?"
            else:
                _, build_bytes = broadcast_build(
                    relation_bytes(accumulated_est, accumulated_width),
                    relation_bytes(
                        _estimated_rows(child, statistics), _node_width(child)
                    ),
                    "inner",
                )
                strategy = (
                    "broadcast-hash"
                    if build_bytes <= broadcast_threshold(config)
                    else "shuffle-hash"
                )
            on = shared
            join_line = f"{pad} +- join on {on}: {strategy} (est)"
        lines.append(join_line)
        subtree_est = _render_node(
            child, statistics, config, runtime, lines, indent + 4
        )
        accumulated_est = join_rows(accumulated_est, subtree_est, keyed=bool(shared))
        accumulated_width += _node_width(child)
    return accumulated_est
