"""The static plan verifier: schema + partitioning inference and checking.

Verification happens at the two plan layers the system has:

- :func:`verify_join_tree` checks one PRoST Join Tree against the paper's
  structural invariants (§3.2–3.3): node kinds and pattern grouping, the
  statistics-based priority ordering, and join connectivity (no needless
  cartesian products).
- :func:`verify_logical_plan` walks an engine logical plan bottom-up,
  deriving each operator's partitioning from the catalog's actual table
  layout through the executor's own narrow rules
  (:func:`repro.engine.data.pruned_key` and its siblings), and rejects
  shuffle hints that discard co-partitioning and joins on mistyped keys.
  It predicts no sizes: the executor picks join strategies, broadcasts,
  degradations and spills from the actual sizes at run time.

Both return :class:`~repro.analysis.diagnostics.Diagnostic` lists;
:func:`check_query` bundles them for the engine's pre-execution gate and
raises :class:`~repro.errors.PlanVerificationError` on any finding.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Sequence

from ..core.join_tree import JoinTree, JoinTreeNode, ObjectPtNode, PtNode, VpNode
from ..engine.data import distinct_key, exploded_key, pruned_key, renamed_key
from ..engine.logical import (
    Aggregate,
    Distinct,
    Explode,
    Filter,
    InMemoryRelation,
    Join,
    LogicalPlan,
    Project,
    TableScan,
    Union,
)
from ..errors import PlanVerificationError
from ..sparql.algebra import SelectQuery, Variable
from .diagnostics import Diagnostic, render_diagnostics

if TYPE_CHECKING:
    from ..core.translator import JoinTreeTranslator
    from ..engine.catalog import Catalog

#: Relative tolerance for priority recomputation (scores are pure float
#: arithmetic over integer statistics; anything beyond rounding noise is a
#: tampered or stale priority).
_PRIORITY_TOLERANCE = 1e-6


# -- Join-Tree verification ---------------------------------------------------


def verify_join_tree(
    tree: JoinTree,
    translator: "JoinTreeTranslator | None" = None,
    min_group_size: int = 2,
    patterns: Sequence[object] | None = None,
) -> list[Diagnostic]:
    """All invariant violations of one Join Tree (empty list = plan is good).

    Args:
        tree: the tree to verify.
        translator: when given, node priorities are recomputed with its
            statistics and scoring (PV105/PV106); its ``min_group_size``
            also overrides the default.
        patterns: the basic graph pattern the tree is supposed to answer;
            when given, coverage is checked (PV109).
    """
    if translator is not None:
        min_group_size = translator.min_group_size
    diagnostics: list[Diagnostic] = []
    paths = node_paths(tree)
    for node in tree.nodes:
        path = paths[id(node)]
        diagnostics.extend(_check_node_structure(node, path, min_group_size))
        if translator is not None and translator.use_statistics:
            diagnostics.extend(_check_node_priority(node, path, translator))
    diagnostics.extend(_check_root_priority(tree, paths))
    diagnostics.extend(_check_connectivity(tree, paths))
    if patterns is not None:
        diagnostics.extend(_check_coverage(tree, patterns))
    return diagnostics


def node_paths(tree: JoinTree) -> dict[int, str]:
    """``id(node) → path`` (``root``, ``root.children[1]``, …) for a tree."""
    paths: dict[int, str] = {}

    def visit(node: JoinTreeNode, path: str) -> None:
        paths[id(node)] = path
        for index, child in enumerate(node.children):
            visit(child, f"{path}.children[{index}]")

    visit(tree.root, "root")
    return paths


def _check_node_structure(
    node: JoinTreeNode, path: str, min_group_size: int
) -> list[Diagnostic]:
    """Kind-specific pattern grouping rules (PV103, PV104, PV110)."""
    found: list[Diagnostic] = []
    label = node.label()
    if isinstance(node, VpNode):
        if len(node.patterns) != 1:
            found.append(
                Diagnostic(
                    "PV110",
                    f"a VP node answers exactly one pattern, found {len(node.patterns)}",
                    path,
                    label,
                )
            )
        return found
    if not isinstance(node, (PtNode, ObjectPtNode)):
        found.append(
            Diagnostic(
                "PV110", f"unknown node kind {type(node).__name__}", path, label
            )
        )
        return found
    if len(node.patterns) < min_group_size:
        found.append(
            Diagnostic(
                "PV110",
                f"{node.kind} node groups {len(node.patterns)} pattern(s), "
                f"below the minimum group size {min_group_size}",
                path,
                label,
            )
        )
    slot_name = "object" if isinstance(node, ObjectPtNode) else "subject"
    keys = {
        getattr(pattern, slot_name) for pattern in node.patterns
    }
    if len(keys) > 1:
        found.append(
            Diagnostic(
                "PV103",
                f"{node.kind} node groups patterns with "
                f"{len(keys)} different {slot_name}s: "
                + ", ".join(sorted(str(key) for key in keys)),
                path,
                label,
            )
        )
    for pattern in node.patterns:
        if isinstance(pattern.predicate, Variable):
            found.append(
                Diagnostic(
                    "PV104",
                    f"{node.kind} node contains the unbound predicate "
                    f"?{pattern.predicate.name}; wide-table columns require "
                    "constant predicates",
                    path,
                    label,
                )
            )
    return found


def _check_node_priority(
    node: JoinTreeNode, path: str, translator: "JoinTreeTranslator"
) -> list[Diagnostic]:
    """Priorities must match the statistics-based score (PV105)."""
    expected = translator.score(node)
    tolerance = _PRIORITY_TOLERANCE * max(1.0, abs(expected))
    if abs(node.priority - expected) <= tolerance:
        return []
    return [
        Diagnostic(
            "PV105",
            f"priority {node.priority:.6g} disagrees with the "
            f"statistics-based score {expected:.6g}",
            path,
            node.label(),
        )
    ]


def _check_root_priority(tree: JoinTree, paths: dict[int, str]) -> list[Diagnostic]:
    """The largest (minimum-priority) node must be the root (PV106)."""
    root = tree.root
    for node in tree.nodes:
        if node.priority < root.priority:
            return [
                Diagnostic(
                    "PV106",
                    f"node priority {node.priority:.6g} undercuts the root's "
                    f"{root.priority:.6g}; the minimum-priority node must be "
                    "the root (paper §3.3)",
                    paths[id(node)],
                    node.label(),
                )
            ]
    return []


def _check_connectivity(tree: JoinTree, paths: dict[int, str]) -> list[Diagnostic]:
    """Replay the executor's fold; flag avoidable cartesian joins (PV102).

    A child joining its parent's accumulated frame on zero shared variables
    is a cartesian product. That is legitimate only when the query's join
    graph is genuinely disconnected — if the child shares a variable with
    *any* node outside its own subtree, the attachment is wrong.
    """
    found: list[Diagnostic] = []
    subtree_vars: dict[int, set[str]] = {}
    subtree_ids: dict[int, set[int]] = {}

    def collect(node: JoinTreeNode) -> tuple[set[str], set[int]]:
        names = {variable.name for variable in node.variables}
        ids = {id(node)}
        for child in node.children:
            child_names, child_ids = collect(child)
            names |= child_names
            ids |= child_ids
        subtree_vars[id(node)] = names
        subtree_ids[id(node)] = ids
        return names, ids

    collect(tree.root)
    all_nodes = tree.nodes

    def outside_vars(child: JoinTreeNode) -> set[str]:
        """Variables of every node *not* in the child's subtree."""
        inside = subtree_ids[id(child)]
        names: set[str] = set()
        for node in all_nodes:
            if id(node) not in inside:
                names.update(variable.name for variable in node.variables)
        return names

    def visit(node: JoinTreeNode) -> None:
        accumulated = {variable.name for variable in node.variables}
        for child in node.fold_order():
            child_vars = subtree_vars[id(child)]
            if not (accumulated & child_vars):
                shared_elsewhere = child_vars & outside_vars(child)
                if shared_elsewhere:
                    found.append(
                        Diagnostic(
                            "PV102",
                            "attached below a parent sharing no variable "
                            "(cartesian product), although it shares "
                            f"{sorted(shared_elsewhere)} with other tree nodes",
                            paths[id(child)],
                            child.label(),
                        )
                    )
            accumulated |= child_vars
            visit(child)

    visit(tree.root)
    return found


def _check_coverage(
    tree: JoinTree, patterns: Sequence[object]
) -> list[Diagnostic]:
    """The tree must answer exactly the query's patterns (PV109)."""
    expected = Counter(str(pattern) for pattern in patterns)
    actual = Counter(str(pattern) for pattern in tree.patterns())
    if expected == actual:
        return []
    missing = sorted((expected - actual).elements())
    extra = sorted((actual - expected).elements())
    parts = []
    if missing:
        parts.append(f"missing {missing}")
    if extra:
        parts.append(f"extraneous {extra}")
    return [
        Diagnostic(
            "PV109",
            "tree patterns do not cover the basic graph pattern: "
            + "; ".join(parts),
            "root",
            tree.root.label(),
        )
    ]


# -- query-level verification -------------------------------------------------


def verify_query(
    query: SelectQuery,
    trees: Sequence[JoinTree],
    optional_trees: Sequence[JoinTree] = (),
    translator: "JoinTreeTranslator | None" = None,
) -> list[Diagnostic]:
    """Verify every tree of a query plus cross-tree variable binding.

    ``trees`` holds one tree per UNION branch (one for a plain BGP);
    ``optional_trees`` one per OPTIONAL group, in query order.
    """
    diagnostics: list[Diagnostic] = []
    branches = (
        list(query.union_branches) if query.is_union else [query.patterns]
    )
    for tree, branch in zip(trees, branches):
        diagnostics.extend(
            verify_join_tree(tree, translator=translator, patterns=branch)
        )
    for tree, group in zip(optional_trees, query.optional_groups):
        diagnostics.extend(
            verify_join_tree(tree, translator=translator, patterns=group)
        )
    diagnostics.extend(_check_bound_variables(query, trees, optional_trees))
    return diagnostics


def _check_bound_variables(
    query: SelectQuery,
    trees: Sequence[JoinTree],
    optional_trees: Sequence[JoinTree],
) -> list[Diagnostic]:
    """Projection/filter/grouping variables must be bound somewhere (PV101)."""
    bound: set[str] = set()
    for tree in list(trees) + list(optional_trees):
        for node in tree.nodes:
            bound.update(node.output_variables())
    found: list[Diagnostic] = []

    def check(names: Iterable[str], role: str) -> None:
        for name in names:
            if name not in bound:
                found.append(
                    Diagnostic(
                        "PV101",
                        f"{role} references ?{name}, which no tree node binds",
                        "root",
                        "query",
                    )
                )

    for expression in query.filters:
        check(
            sorted(variable.name for variable in expression.variables), "FILTER"
        )
    if query.is_aggregate:
        check((variable.name for variable in query.group_by), "GROUP BY")
        for aggregate in query.aggregates:
            if aggregate.variable is not None:
                check((aggregate.variable.name,), "aggregate")
        selectable = bound | {a.alias.name for a in query.aggregates}
        for variable in query.projection:
            if variable.name not in selectable:
                found.append(
                    Diagnostic(
                        "PV101",
                        f"SELECT references ?{variable.name}, which is neither "
                        "grouped nor aggregated",
                        "root",
                        "query",
                    )
                )
        return found
    check((variable.name for variable in query.projection), "SELECT")
    return found


# -- logical-plan verification ------------------------------------------------


def verify_logical_plan(
    plan: LogicalPlan, catalog: "Catalog | None" = None
) -> list[Diagnostic]:
    """All engine-plan invariant violations (empty list = plan is good).

    Join keys are checked for matching types (PV201) and shuffle hints
    against co-partitioning they would discard (PV205). With a ``catalog``,
    scans start from each table's stored partitioning (without one, scans
    are unplaced).
    """
    diagnostics: list[Diagnostic] = []
    _derive(plan, "plan", catalog, diagnostics)
    return diagnostics


def _derive(
    plan: LogicalPlan,
    path: str,
    catalog: "Catalog | None",
    out: list[Diagnostic],
) -> tuple[str, ...] | None:
    """The catalog-grounded partitioning of one operator's output."""
    if isinstance(plan, TableScan):
        if catalog is None:
            return None
        partitioner = catalog.get(plan.table_name).data.partitioner
        key = partitioner.columns if partitioner is not None else None
        return pruned_key(key, plan.schema.names)
    if isinstance(plan, InMemoryRelation):
        return None
    if isinstance(plan, Join):
        return _derive_join(plan, path, catalog, out)
    if isinstance(plan, Union):
        for index, branch in enumerate(plan.inputs):
            _derive(branch, f"{path}.inputs[{index}]", catalog, out)
        return None
    child = _derive(plan.child, f"{path}.child", catalog, out)
    if isinstance(plan, Filter):
        return child
    if isinstance(plan, Distinct):
        return distinct_key(plan.schema.names)
    if isinstance(plan, Project):
        return renamed_key(child, plan.outputs)
    if isinstance(plan, Explode):
        return exploded_key(child, plan.column)
    if isinstance(plan, Aggregate):
        return plan.keys or None
    return None


def _derive_join(
    plan: Join,
    path: str,
    catalog: "Catalog | None",
    out: list[Diagnostic],
) -> tuple[str, ...] | None:
    left = _derive(plan.left, f"{path}.left", catalog, out)
    right = _derive(plan.right, f"{path}.right", catalog, out)
    label = plan._describe_line()

    for key in plan.on:
        left_type = plan.left.schema.column(key).type
        right_type = plan.right.schema.column(key).type
        if left_type != right_type:
            out.append(
                Diagnostic(
                    "PV201",
                    f"join key {key!r} is {left_type!r} on the left side but "
                    f"{right_type!r} on the right",
                    path,
                    label,
                )
            )

    if plan.how == "cross":
        return None
    co_partitioned = left == plan.on and right == plan.on
    if plan.hint == "shuffle" and co_partitioned:
        out.append(
            Diagnostic(
                "PV205",
                f"shuffle hint forces a repartition although both sides "
                f"are already co-partitioned on {list(plan.on)}",
                path,
                label,
            )
        )
    return plan.on if co_partitioned else None


# -- the engine's pre-execution gate ------------------------------------------


def check_query(
    query: SelectQuery,
    trees: Sequence[JoinTree],
    optional_trees: Sequence[JoinTree],
    plan: LogicalPlan,
    translator: "JoinTreeTranslator | None" = None,
    catalog: "Catalog | None" = None,
) -> None:
    """Verify a fully-planned query; raise on any violated invariant.

    Raises:
        PlanVerificationError: carrying every
            :class:`~repro.analysis.diagnostics.Diagnostic`, with an
            EXPLAIN-style rendering of the offending tree as the message.
    """
    diagnostics = verify_query(
        query, trees, optional_trees, translator=translator
    )
    diagnostics.extend(verify_logical_plan(plan, catalog=catalog))
    if not diagnostics:
        return
    tree_text = "\n".join(tree.describe() for tree in list(trees) + list(optional_trees))
    raise PlanVerificationError(
        render_diagnostics(diagnostics, tree_text), diagnostics=tuple(diagnostics)
    )
