"""Rule-based plan optimizer (Catalyst analogue).

Implements the rewrites Spark SQL's Catalyst applies to PRoST's join trees
(paper §3.3: "The trees are not substantially changed, but Spark intervenes
in producing optimized physical plans"):

- **filter pushdown** — conjuncts sink through projections, joins, distinct,
  and explodes toward the scans;
- **column pruning** — scans read only the columns the query needs (which,
  over the columnar store, skips whole column chunks);
- **filter combining** — adjacent filters merge into one conjunction.

Join *order* is deliberately left alone: ordering is the translators' job
(statistics-based, per system), as in the paper. Join *strategy* (broadcast
vs shuffle) is picked at execution time with runtime sizes.
"""

from __future__ import annotations

from .expressions import (
    ArrayContains,
    BinaryComparison,
    BooleanOp,
    ColumnRef,
    Expression,
    LiteralValue,
    NotNull,
    and_all,
)
from .logical import (
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


def optimize(plan: LogicalPlan) -> LogicalPlan:
    """Apply all rules and return the rewritten plan.

    The result is memoized on the (immutable) plan instance: re-executing a
    prepared plan reuses the exact same rewritten node objects, which keeps
    filter-condition identity stable — the executor memoizes
    per-batch selections by condition — and skips redundant rewriting.
    """
    cached = plan.__dict__.get("_optimized_memo")
    if cached is None:
        cached = push_down_filters(plan)
        cached = prune_columns(cached, set(cached.schema.names))
        plan.__dict__["_optimized_memo"] = cached
    return cached


# -- expression utilities -----------------------------------------------------


def split_conjuncts(expression: Expression) -> list[Expression]:
    """Break a conjunction into its parts (non-AND expressions pass through)."""
    if isinstance(expression, BooleanOp) and expression.op == "and":
        parts: list[Expression] = []
        for operand in expression.operands:
            parts.extend(split_conjuncts(operand))
        return parts
    return [expression]


def rewrite_columns(expression: Expression, mapping: dict[str, str]) -> Expression | None:
    """Rename every column reference via ``mapping``.

    Returns ``None`` when the expression references a column absent from the
    mapping (it cannot be pushed through the projection).
    """
    if isinstance(expression, ColumnRef):
        target = mapping.get(expression.name)
        return ColumnRef(target) if target is not None else None
    if isinstance(expression, LiteralValue):
        return expression
    if isinstance(expression, BinaryComparison):
        left = rewrite_columns(expression.left, mapping)
        right = rewrite_columns(expression.right, mapping)
        if left is None or right is None:
            return None
        return BinaryComparison(expression.op, left, right)
    if isinstance(expression, BooleanOp):
        operands = [rewrite_columns(op, mapping) for op in expression.operands]
        if any(op is None for op in operands):
            return None
        return BooleanOp(expression.op, tuple(operands))  # type: ignore[arg-type]
    if isinstance(expression, NotNull):
        inner = rewrite_columns(expression.operand, mapping)
        return NotNull(inner) if inner is not None else None
    if isinstance(expression, ArrayContains):
        operand = rewrite_columns(expression.operand, mapping)
        element = rewrite_columns(expression.element, mapping)
        if operand is None or element is None:
            return None
        return ArrayContains(operand, element)
    return None


# -- filter pushdown -------------------------------------------------------------


def push_down_filters(plan: LogicalPlan) -> LogicalPlan:
    """Sink filter conjuncts as close to the scans as their columns allow."""
    return _push(plan, [])


def _apply_pending(plan: LogicalPlan, pending: list[Expression]) -> LogicalPlan:
    condition = and_all(pending)
    if condition is None:
        return plan
    return Filter(plan, condition)


def _push(plan: LogicalPlan, pending: list[Expression]) -> LogicalPlan:
    if isinstance(plan, Filter):
        return _push(plan.child, pending + split_conjuncts(plan.condition))

    if isinstance(plan, Project):
        if plan.is_rename_only:
            inverse = {
                out_name: expression.name  # type: ignore[union-attr]
                for out_name, expression in plan.outputs
            }
            pushed: list[Expression] = []
            kept: list[Expression] = []
            for conjunct in pending:
                rewritten = rewrite_columns(conjunct, inverse)
                if rewritten is not None:
                    pushed.append(rewritten)
                else:
                    kept.append(conjunct)
            child = _push(plan.child, pushed)
            return _apply_pending(Project(child, plan.outputs), kept)
        child = _push(plan.child, [])
        return _apply_pending(Project(child, plan.outputs), pending)

    if isinstance(plan, Join):
        left_names = set(plan.left.schema.names)
        right_names = set(plan.right.schema.names)
        to_left: list[Expression] = []
        to_right: list[Expression] = []
        kept = []
        for conjunct in pending:
            refs = conjunct.references()
            if refs <= left_names:
                to_left.append(conjunct)
            elif refs <= right_names and plan.how in ("inner", "cross"):
                to_right.append(conjunct)
            else:
                kept.append(conjunct)
        left = _push(plan.left, to_left)
        right = _push(plan.right, to_right)
        return _apply_pending(
            Join(left, right, on=plan.on, how=plan.how, hint=plan.hint), kept
        )

    if isinstance(plan, Explode):
        exploded = plan.output_name or plan.column
        pushed, kept = [], []
        for conjunct in pending:
            if exploded in conjunct.references():
                kept.append(conjunct)
            else:
                mapping = {
                    name: name for name in plan.child.schema.names if name != plan.column
                }
                rewritten = rewrite_columns(conjunct, mapping)
                if rewritten is not None:
                    pushed.append(rewritten)
                else:
                    kept.append(conjunct)
        child = _push(plan.child, pushed)
        return _apply_pending(
            Explode(child, plan.column, plan.output_name), kept
        )

    if isinstance(plan, Distinct):
        return Distinct(_push(plan.child, pending))

    if isinstance(plan, Aggregate):
        # Filters above an aggregate reference its outputs; they stay above.
        child = _push(plan.child, [])
        return _apply_pending(
            Aggregate(child, plan.keys, plan.aggregates), pending
        )

    if isinstance(plan, Union):
        inputs = tuple(_push(child, list(pending)) for child in plan.inputs)
        return Union(inputs)

    # Leaves: TableScan / InMemoryRelation.
    return _apply_pending(plan, pending)


# -- column pruning --------------------------------------------------------------


def prune_columns(plan: LogicalPlan, required: set[str]) -> LogicalPlan:
    """Rewrite the tree so scans read only what ``required`` transitively needs."""
    if isinstance(plan, TableScan):
        ordered = tuple(
            name for name in plan.table_schema.names if name in required
        )
        if not ordered:
            ordered = (plan.table_schema.names[0],)
        if plan.columns is not None and set(plan.columns) == set(ordered):
            return plan
        return TableScan(
            plan.table_name,
            plan.table_schema,
            columns=ordered,
            partition_columns=plan.partition_columns,
        )

    if isinstance(plan, InMemoryRelation):
        return plan

    if isinstance(plan, Filter):
        child = prune_columns(plan.child, required | plan.condition.references())
        return Filter(child, plan.condition)

    if isinstance(plan, Project):
        outputs = tuple(
            (name, expression) for name, expression in plan.outputs if name in required
        )
        if not outputs:
            outputs = plan.outputs[:1]
        child_required: set[str] = set()
        for _, expression in outputs:
            child_required |= expression.references()
        child = prune_columns(plan.child, child_required or {plan.child.schema.names[0]})
        return Project(child, outputs)

    if isinstance(plan, Join):
        keys = set(plan.on)
        left_required = (required & set(plan.left.schema.names)) | keys
        right_required = (required & set(plan.right.schema.names)) | keys
        left = prune_columns(plan.left, left_required)
        right = prune_columns(plan.right, right_required)
        return Join(left, right, on=plan.on, how=plan.how, hint=plan.hint)

    if isinstance(plan, Explode):
        exploded = plan.output_name or plan.column
        child_required = {
            plan.column if name == exploded else name for name in required
        }
        child_required.add(plan.column)
        child = prune_columns(plan.child, child_required)
        return Explode(child, plan.column, plan.output_name)

    if isinstance(plan, Distinct):
        # Pruning through DISTINCT changes its grouping: keep all columns.
        child = prune_columns(plan.child, set(plan.child.schema.names))
        return Distinct(child)

    if isinstance(plan, Aggregate):
        child_required = set(plan.keys)
        for spec in plan.aggregates:
            if spec.input_column is not None:
                child_required.add(spec.input_column)
            elif spec.op == "count_distinct":
                # COUNT(DISTINCT *) compares whole rows: keep every column.
                child_required = set(plan.child.schema.names)
                break
        child = prune_columns(
            plan.child, child_required or {plan.child.schema.names[0]}
        )
        return Aggregate(child, plan.keys, plan.aggregates)

    if isinstance(plan, Union):
        inputs = tuple(prune_columns(child, set(required)) for child in plan.inputs)
        return Union(inputs)

    return plan
