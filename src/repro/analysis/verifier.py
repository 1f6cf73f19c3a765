"""The static plan verifier: schema + partitioning inference and checking.

Verification happens at the two plan layers the system has:

- :func:`verify_join_tree` checks one PRoST Join Tree against the paper's
  structural invariants (§3.2–3.3): node kinds and pattern grouping, the
  statistics-based priority ordering, declared partitioning versus the
  storage layout, and join connectivity (no needless cartesian products).
- :func:`verify_logical_plan` walks an engine logical plan bottom-up,
  deriving each operator's ground-truth partitioning from the catalog's
  actual table layout, and rejects plans whose *declared* partitioning
  (:attr:`repro.engine.logical.LogicalPlan.partitioning`) disagrees — the
  static analogue of a colocated join silently reading shuffled data — plus
  broadcast hints whose build side cannot fit under the threshold.

Both return :class:`~repro.analysis.diagnostics.Diagnostic` lists;
:func:`check_query` bundles them for the engine's pre-execution gate and
raises :class:`~repro.errors.PlanVerificationError` on any finding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from ..core.join_tree import JoinTree, JoinTreeNode, ObjectPtNode, PtNode, VpNode
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
from .diagnostics import ADVISORY_CODES, Diagnostic, render_diagnostics

if TYPE_CHECKING:
    from ..core.translator import JoinTreeTranslator
    from ..engine.catalog import Catalog
    from ..engine.cluster import ClusterConfig

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
        diagnostics.extend(_check_node_partitioning(node, path))
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


def _check_node_partitioning(node: JoinTreeNode, path: str) -> list[Diagnostic]:
    """Declared partitioning must match the storage layout (PV108)."""
    declared = node.declared_partitioning
    if declared is None:
        return []
    natural = node.natural_partitioning()
    if declared == natural:
        return []
    return [
        Diagnostic(
            "PV108",
            f"declared partitioning {list(declared)} disagrees with the "
            f"storage-derived partitioning {list(natural)}",
            path,
            node.label(),
        )
    ]


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
        for child in sorted(node.children, key=lambda n: -n.priority):
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


@dataclass(frozen=True)
class _Derived:
    """Catalog-grounded facts about one operator's output."""

    partitioning: tuple[str, ...] | None
    num_partitions: int | None
    est_rows: int | None


def verify_logical_plan(
    plan: LogicalPlan,
    catalog: "Catalog | None" = None,
    config: "ClusterConfig | None" = None,
) -> list[Diagnostic]:
    """All engine-plan invariant violations (empty list = plan is good).

    With a ``catalog``, each scan's declared ``partition_columns`` is checked
    against the table's actual layout (PV203) and partitioning is derived
    from ground truth; with a ``config``, broadcast hints are checked against
    the size threshold (PV204) and shuffle hints against discarded
    co-partitioning (PV205).
    """
    diagnostics: list[Diagnostic] = []
    _derive(plan, "plan", catalog, config, diagnostics)
    return diagnostics


def _derive(
    plan: LogicalPlan,
    path: str,
    catalog: "Catalog | None",
    config: "ClusterConfig | None",
    out: list[Diagnostic],
) -> _Derived:
    if isinstance(plan, TableScan):
        return _derive_scan(plan, path, catalog, out)
    if isinstance(plan, InMemoryRelation):
        return _Derived(None, None, len(plan.rows))
    if isinstance(plan, (Filter, Distinct)):
        child = _derive(plan.child, f"{path}.child", catalog, config, out)
        if isinstance(plan, Filter):
            return _Derived(child.partitioning, child.num_partitions, child.est_rows)
        all_columns = tuple(plan.schema.names)
        if child.partitioning == all_columns:
            partitions = child.num_partitions
        else:
            partitions = config.default_partitions if config else None
        return _Derived(all_columns, partitions, child.est_rows)
    if isinstance(plan, Project):
        child = _derive(plan.child, f"{path}.child", catalog, config, out)
        return _Derived(
            _rename_partitioning(plan, child.partitioning),
            child.num_partitions,
            child.est_rows,
        )
    if isinstance(plan, Explode):
        child = _derive(plan.child, f"{path}.child", catalog, config, out)
        partitioning = child.partitioning
        if partitioning is not None and plan.column in partitioning:
            partitioning = None
        return _Derived(partitioning, child.num_partitions, child.est_rows)
    if isinstance(plan, Aggregate):
        child = _derive(plan.child, f"{path}.child", catalog, config, out)
        return _Derived(plan.keys or None, None, child.est_rows)
    if isinstance(plan, Union):
        rows: int | None = 0
        for index, branch in enumerate(plan.inputs):
            derived = _derive(branch, f"{path}.inputs[{index}]", catalog, config, out)
            if rows is not None and derived.est_rows is not None:
                rows += derived.est_rows
            else:
                rows = None
        return _Derived(None, None, rows)
    if isinstance(plan, Join):
        return _derive_join(plan, path, catalog, config, out)
    return _Derived(None, None, None)


def _derive_scan(
    plan: TableScan, path: str, catalog: "Catalog | None", out: list[Diagnostic]
) -> _Derived:
    if catalog is None:
        return _Derived(plan.partitioning, None, None)
    stored = catalog.get(plan.table_name)
    partitioner = stored.data.partitioner
    actual = partitioner.columns if partitioner is not None else None
    if plan.partition_columns != actual:
        out.append(
            Diagnostic(
                "PV203",
                f"scan of {plan.table_name!r} declares partitioning "
                f"{list(plan.partition_columns) if plan.partition_columns else None}, "
                f"but the catalog stores the table partitioned on "
                f"{list(actual) if actual else None}",
                path,
                plan._describe_line(),
            )
        )
    derived = actual
    if derived is not None and plan.columns is not None:
        if not set(derived) <= set(plan.columns):
            derived = None
    return _Derived(derived, stored.data.num_partitions, stored.row_count)


def _derive_join(
    plan: Join,
    path: str,
    catalog: "Catalog | None",
    config: "ClusterConfig | None",
    out: list[Diagnostic],
) -> _Derived:
    left = _derive(plan.left, f"{path}.left", catalog, config, out)
    right = _derive(plan.right, f"{path}.right", catalog, config, out)
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

    if config is not None and plan.how != "cross":
        out.extend(_check_budget(plan, left, right, path, label, config))

    if plan.how == "cross":
        rows = (
            left.est_rows * right.est_rows
            if left.est_rows is not None and right.est_rows is not None
            else None
        )
        return _Derived(None, None, rows)
    if plan.how in ("semi", "anti"):
        return _Derived(left.partitioning, left.num_partitions, left.est_rows)

    co_partitioned = (
        left.partitioning == plan.on and right.partitioning == plan.on
    )
    declared_colocated = (
        plan.left.partitioning == plan.on and plan.right.partitioning == plan.on
    )
    if declared_colocated and not co_partitioned and catalog is not None:
        out.append(
            Diagnostic(
                "PV202",
                f"declared colocated on {list(plan.on)}, but the catalog-"
                f"derived partitionings are left={_fmt(left.partitioning)} "
                f"right={_fmt(right.partitioning)}",
                path,
                label,
            )
        )
    if (
        co_partitioned
        and left.num_partitions is not None
        and right.num_partitions is not None
        and left.num_partitions != right.num_partitions
    ):
        out.append(
            Diagnostic(
                "PV202",
                f"both sides are partitioned on {list(plan.on)} but with "
                f"{left.num_partitions} vs {right.num_partitions} partitions; "
                "the colocated join silently degrades",
                path,
                label,
            )
        )
    if plan.hint == "shuffle" and co_partitioned and catalog is not None:
        if left.num_partitions == right.num_partitions:
            out.append(
                Diagnostic(
                    "PV205",
                    f"shuffle hint forces a repartition although both sides "
                    f"are already co-partitioned on {list(plan.on)}",
                    path,
                    label,
                )
            )
    if plan.hint == "broadcast" and config is not None:
        out.extend(_check_broadcast(plan, left, right, path, label, config))

    rows = (
        max(left.est_rows, right.est_rows)
        if left.est_rows is not None and right.est_rows is not None
        else None
    )
    if co_partitioned:
        partitions = (
            left.num_partitions
            if left.num_partitions == right.num_partitions
            else None
        )
        return _Derived(plan.on, partitions, rows)
    return _Derived(None, None, rows)


def _check_broadcast(
    plan: Join,
    left: _Derived,
    right: _Derived,
    path: str,
    label: str,
    config: "ClusterConfig",
) -> list[Diagnostic]:
    """A broadcast hint must have a build side under the threshold (PV204)."""
    # Imported here, not at module level: the estimation constant lives with
    # the EXPLAIN machinery and obs stays an optional layer.
    from ..obs.explain import ESTIMATED_CELL_BYTES

    def estimated_bytes(side: _Derived, schema_width: int) -> int | None:
        if side.est_rows is None:
            return None
        return side.est_rows * schema_width * ESTIMATED_CELL_BYTES

    left_bytes = estimated_bytes(left, len(plan.left.schema.names))
    right_bytes = estimated_bytes(right, len(plan.right.schema.names))
    if plan.how != "inner":
        build_bytes = right_bytes  # only the build (right) side may ship
    elif left_bytes is None or right_bytes is None:
        build_bytes = None
    else:
        build_bytes = min(left_bytes, right_bytes)
    if build_bytes is None:
        return []
    threshold = config.broadcast_threshold_bytes / config.data_scale
    if build_bytes <= threshold:
        return []
    return [
        Diagnostic(
            "PV204",
            f"broadcast hint with an estimated build side of {build_bytes} "
            f"bytes, above the {threshold:.0f}-byte threshold",
            path,
            label,
        )
    ]


def _check_budget(
    plan: Join,
    left: _Derived,
    right: _Derived,
    path: str,
    label: str,
    config: "ClusterConfig",
) -> list[Diagnostic]:
    """Advisory degradation forecast under a memory budget (PV301, PV302).

    Mirrors the runtime governor's decisions over *estimated* sizes: a
    broadcast build side over the budget will be demoted to a shuffle join,
    and a keyed hash build over the budget will run as a partitioned
    grace-hash spill. Both are degraded-but-valid plans, so these codes are
    advisory (:data:`~repro.analysis.diagnostics.ADVISORY_CODES`) — they
    never fail the pre-execution gate.
    """
    budget = config.memory_budget_bytes
    if budget is None:
        return []
    from ..obs.explain import ESTIMATED_CELL_BYTES

    def estimated_bytes(side: _Derived, schema_width: int) -> int | None:
        if side.est_rows is None:
            return None
        return side.est_rows * schema_width * ESTIMATED_CELL_BYTES

    left_bytes = estimated_bytes(left, len(plan.left.schema.names))
    right_bytes = estimated_bytes(right, len(plan.right.schema.names))
    found: list[Diagnostic] = []
    if plan.hint == "broadcast":
        if plan.how != "inner" or left_bytes is None or right_bytes is None:
            build_bytes = right_bytes  # only the build (right) side may ship
        else:
            build_bytes = min(left_bytes, right_bytes)
        if build_bytes is not None and build_bytes > budget:
            found.append(
                Diagnostic(
                    "PV301",
                    f"broadcast build side estimated at {build_bytes} bytes "
                    f"exceeds the {budget}-byte memory budget; the governor "
                    "will degrade it to a shuffle join",
                    path,
                    label,
                )
            )
    if right_bytes is not None and right_bytes > budget:
        found.append(
            Diagnostic(
                "PV302",
                f"hash-join build side estimated at {right_bytes} bytes "
                f"exceeds the {budget}-byte memory budget; the governor will "
                "run it as a partitioned grace-hash spill",
                path,
                label,
            )
        )
    return found


def _rename_partitioning(
    plan: Project, partitioning: tuple[str, ...] | None
) -> tuple[str, ...] | None:
    """Ground-truth twin of ``Project.partitioning`` over derived facts."""
    if partitioning is None:
        return None
    from ..engine.expressions import ColumnRef

    rename: dict[str, str] = {}
    for out_name, expression in plan.outputs:
        if isinstance(expression, ColumnRef):
            rename.setdefault(expression.name, out_name)
    try:
        return tuple(rename[name] for name in partitioning)
    except KeyError:
        return None


def _fmt(partitioning: tuple[str, ...] | None) -> str:
    return str(list(partitioning)) if partitioning is not None else "None"


# -- the engine's pre-execution gate ------------------------------------------


def check_query(
    query: SelectQuery,
    trees: Sequence[JoinTree],
    optional_trees: Sequence[JoinTree],
    plan: LogicalPlan,
    translator: "JoinTreeTranslator | None" = None,
    catalog: "Catalog | None" = None,
    config: "ClusterConfig | None" = None,
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
    diagnostics.extend(verify_logical_plan(plan, catalog=catalog, config=config))
    # Advisory (PV3xx) findings describe degraded-but-valid plans the
    # governor handles at runtime; only genuine violations block execution.
    blocking = [d for d in diagnostics if d.code not in ADVISORY_CODES]
    if not blocking:
        return
    tree_text = "\n".join(tree.describe() for tree in list(trees) + list(optional_trees))
    raise PlanVerificationError(
        render_diagnostics(blocking, tree_text), diagnostics=tuple(blocking)
    )
