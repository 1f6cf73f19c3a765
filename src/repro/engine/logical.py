"""Logical query plans.

A small, immutable algebra in the style of Spark SQL's logical plans. Plans
are built by the :class:`~repro.engine.dataframe.DataFrame` API, rewritten by
the optimizer, and executed bottom-up by the physical executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..columnar.schema import ColumnSchema, TableSchema
from ..errors import PlanError
from .expressions import ColumnRef, Expression, LiteralValue, require_predicate

#: Join types supported by the engine.
JOIN_TYPES = ("inner", "semi", "anti", "left", "cross")

#: Join strategy hints (set by optimizer or caller).
JOIN_HINTS = ("auto", "broadcast", "shuffle")


class LogicalPlan:
    """Base class. Subclasses are frozen dataclasses with a schema property.

    Subclass ``schema`` properties are :func:`functools.cached_property`
    memos: plans are immutable, so the output schema is computed once per
    node (``cached_property`` writes straight into ``__dict__``, which a
    frozen dataclass permits — only ``__setattr__`` is sealed).
    """

    @property
    def schema(self) -> TableSchema:
        """Output schema of the operator."""
        raise NotImplementedError

    @property
    def children(self) -> tuple["LogicalPlan", ...]:
        """Input plans, left to right (empty for leaves)."""
        raise NotImplementedError

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        """Columns the output is hash-partitioned on, or ``None``.

        The static half of the executor's partitioner lineage: each operator
        declares how it transforms its children's partitioning, mirroring the
        physical rules in :mod:`repro.engine.executor`. The plan verifier
        (:mod:`repro.analysis`) checks these declarations against the catalog's
        actual table layout, so a plan cannot silently claim a colocated join
        the storage layout does not support.
        """
        raise NotImplementedError

    def describe(self, indent: int = 0) -> str:
        """Render the subtree as an indented explain string."""
        pad = "  " * indent
        line = pad + self._describe_line()
        return "\n".join([line] + [c.describe(indent + 1) for c in self.children])

    def _describe_line(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class TableScan(LogicalPlan):
    """Scan a catalog table, optionally pruned to a column subset."""

    table_name: str
    table_schema: TableSchema
    columns: tuple[str, ...] | None = None
    #: The stored table's hash-partitioning columns, as registered in the
    #: catalog (threaded through by ``EngineSession.table``). ``None`` means
    #: the table was registered without a keyed partitioner.
    partition_columns: tuple[str, ...] | None = None

    @cached_property
    def schema(self) -> TableSchema:
        if self.columns is None:
            return self.table_schema
        return self.table_schema.select(list(self.columns))

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return ()

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        if self.partition_columns is None:
            return None
        if self.columns is not None and not set(self.partition_columns) <= set(
            self.columns
        ):
            return None  # pruning dropped a key column (executor does the same)
        return self.partition_columns

    def _describe_line(self) -> str:
        pruned = f" columns={list(self.columns)}" if self.columns is not None else ""
        return f"TableScan({self.table_name}{pruned})"


@dataclass(frozen=True)
class InMemoryRelation(LogicalPlan):
    """A relation materialized by the caller (local rows)."""

    relation_schema: TableSchema
    rows: tuple[tuple, ...]
    label: str = "local"

    @cached_property
    def schema(self) -> TableSchema:
        return self.relation_schema

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return ()

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        return None  # local rows are spread round-robin, never keyed

    def _describe_line(self) -> str:
        return f"InMemoryRelation({self.label}, {len(self.rows)} rows)"


@dataclass(frozen=True)
class Filter(LogicalPlan):
    """Keep rows where ``condition`` evaluates truthy."""

    child: LogicalPlan
    condition: Expression

    def __post_init__(self) -> None:
        require_predicate(self.condition, "filter condition")
        missing = self.condition.references() - set(self.child.schema.names)
        if missing:
            raise PlanError(f"filter references unknown columns: {sorted(missing)}")

    @cached_property
    def schema(self) -> TableSchema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        return self.child.partitioning  # row-preserving placement

    def _describe_line(self) -> str:
        return f"Filter({self.condition.describe()})"


@dataclass(frozen=True)
class Project(LogicalPlan):
    """Select, rename and reorder child columns; an output may also be a
    constant (a tag column, a NULL pad, an existence marker)."""

    child: LogicalPlan
    outputs: tuple[tuple[str, Expression], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.outputs]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate output columns in project: {names}")
        available = set(self.child.schema.names)
        for name, expression in self.outputs:
            if not isinstance(expression, (ColumnRef, LiteralValue)):
                raise PlanError(
                    f"project output {name!r} must be a column or a constant, "
                    f"got {expression!r}"
                )
            missing = expression.references() - available
            if missing:
                raise PlanError(
                    f"project output {name!r} references unknown columns: {sorted(missing)}"
                )

    @cached_property
    def schema(self) -> TableSchema:
        child_schema = self.child.schema
        columns = []
        for name, expression in self.outputs:
            columns.append(ColumnSchema(name, _infer_type(expression, child_schema)))
        return TableSchema(columns)

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    @property
    def is_rename_only(self) -> bool:
        """True when every output is a bare column reference."""
        return all(isinstance(e, ColumnRef) for _, e in self.outputs)

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        # Mirror of the executor's ``_project_partitioner``: a partitioning
        # survives only when every key column is re-emitted as a bare
        # reference (possibly renamed).
        source = self.child.partitioning
        if source is None:
            return None
        rename: dict[str, str] = {}
        for out_name, expression in self.outputs:
            if isinstance(expression, ColumnRef):
                rename.setdefault(expression.name, out_name)
        try:
            return tuple(rename[name] for name in source)
        except KeyError:
            return None

    def _describe_line(self) -> str:
        parts = ", ".join(
            name if isinstance(e, ColumnRef) and e.name == name else f"{e.describe()} AS {name}"
            for name, e in self.outputs
        )
        return f"Project({parts})"


@dataclass(frozen=True)
class Join(LogicalPlan):
    """Equi-join on identically named key columns (natural-join style).

    Output schema: all left columns, then right columns minus the keys.
    """

    left: LogicalPlan
    right: LogicalPlan
    on: tuple[str, ...]
    how: str = "inner"
    hint: str = "auto"

    def __post_init__(self) -> None:
        if self.how not in JOIN_TYPES:
            raise PlanError(f"unknown join type {self.how!r}")
        if self.hint not in JOIN_HINTS:
            raise PlanError(f"unknown join hint {self.hint!r}")
        if self.how == "cross":
            if self.on:
                raise PlanError("cross join takes no key columns")
            overlap = set(self.left.schema.names) & set(self.right.schema.names)
            if overlap:
                raise PlanError(f"cross join sides share columns: {sorted(overlap)}")
            return
        if not self.on:
            raise PlanError("join requires at least one key column")
        for side, plan in (("left", self.left), ("right", self.right)):
            missing = set(self.on) - set(plan.schema.names)
            if missing:
                raise PlanError(f"{side} side lacks join columns: {sorted(missing)}")

    @cached_property
    def schema(self) -> TableSchema:
        if self.how in ("semi", "anti"):
            return self.left.schema
        keys = set(self.on)
        columns = list(self.left.schema.columns)
        columns.extend(c for c in self.right.schema.columns if c.name not in keys)
        return TableSchema(columns)

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        # Semi/anti joins only ever filter the left side in place, so its
        # placement survives every strategy. Other joins are declared
        # partitioned on the keys when both inputs already are — the
        # colocated and shuffle outcomes; the executor's broadcast fallback
        # for mismatched partition counts is the one case this optimistic
        # declaration papers over (the verifier grounds it via the catalog).
        if self.how in ("semi", "anti"):
            return self.left.partitioning
        if self.how == "cross":
            return None
        if self.left.partitioning == self.on and self.right.partitioning == self.on:
            return self.on
        return None

    def _describe_line(self) -> str:
        hint = f", hint={self.hint}" if self.hint != "auto" else ""
        return f"Join(on={list(self.on)}, how={self.how}{hint})"


@dataclass(frozen=True)
class Explode(LogicalPlan):
    """Flatten a list-typed column into one row per element.

    Rows whose list is NULL or empty are dropped (inner explode), matching
    how the Property Table expands a multi-valued predicate (paper §3.1).
    """

    child: LogicalPlan
    column: str
    output_name: str | None = None

    def __post_init__(self) -> None:
        source = self.child.schema.column(self.column)
        if not source.is_list:
            raise PlanError(f"explode expects a list column, got {source.type!r}")

    @cached_property
    def schema(self) -> TableSchema:
        out_name = self.output_name or self.column
        columns = []
        for column in self.child.schema.columns:
            if column.name == self.column:
                columns.append(ColumnSchema(out_name, column.element_type))
            else:
                columns.append(column)
        return TableSchema(columns)

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        source = self.child.partitioning
        if source is not None and self.column in source:
            return None  # exploding a key column scatters its values
        return source

    def _describe_line(self) -> str:
        return f"Explode({self.column} AS {self.output_name or self.column})"


@dataclass(frozen=True)
class Distinct(LogicalPlan):
    """Drop duplicate rows."""

    child: LogicalPlan

    @cached_property
    def schema(self) -> TableSchema:
        return self.child.schema

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        # The executor dedups per-partition after hash-placing rows by the
        # full row, so the output is always partitioned on every column.
        return tuple(self.schema.names)

    def _describe_line(self) -> str:
        return "Distinct"


#: Aggregate functions supported by the engine.
AGGREGATE_OPS = ("count", "count_distinct")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: ``op`` over ``input_column`` (None = all rows),
    named ``output``. ``count`` over a column counts its non-NULL cells."""

    op: str
    output: str
    input_column: str | None = None

    def __post_init__(self) -> None:
        if self.op not in AGGREGATE_OPS:
            raise PlanError(f"unknown aggregate op {self.op!r}")


@dataclass(frozen=True)
class Aggregate(LogicalPlan):
    """Hash aggregation: group by ``keys``, compute ``aggregates``.

    With no keys the whole input forms one group (which exists even when the
    input is empty, per SQL/SPARQL semantics).
    """

    child: LogicalPlan
    keys: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise PlanError("aggregate needs at least one aggregate output")
        child_names = set(self.child.schema.names)
        for key in self.keys:
            if key not in child_names:
                raise PlanError(f"group key {key!r} is not a child column")
        outputs = [spec.output for spec in self.aggregates]
        if len(set(outputs)) != len(outputs) or set(outputs) & set(self.keys):
            raise PlanError(f"duplicate aggregate output names: {outputs}")
        for spec in self.aggregates:
            if spec.input_column is not None and spec.input_column not in child_names:
                raise PlanError(
                    f"aggregate input {spec.input_column!r} is not a child column"
                )

    @cached_property
    def schema(self) -> TableSchema:
        columns = [self.child.schema.column(key) for key in self.keys]
        columns.extend(ColumnSchema(spec.output, "int") for spec in self.aggregates)
        return TableSchema(columns)

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        return self.keys or None  # reduce side shuffles by the group keys

    def _describe_line(self) -> str:
        rendered = ", ".join(
            f"{spec.op}({spec.input_column or '*'}) AS {spec.output}"
            for spec in self.aggregates
        )
        return f"Aggregate(keys={list(self.keys)}, {rendered})"


@dataclass(frozen=True)
class Union(LogicalPlan):
    """Bag union of children with identical column names."""

    inputs: tuple[LogicalPlan, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.inputs) < 2:
            raise PlanError("union needs at least two inputs")
        first = self.inputs[0].schema.names
        for plan in self.inputs[1:]:
            if plan.schema.names != first:
                raise PlanError(
                    f"union inputs disagree on columns: {first} vs {plan.schema.names}"
                )

    @cached_property
    def schema(self) -> TableSchema:
        return self.inputs[0].schema

    @property
    def children(self) -> tuple[LogicalPlan, ...]:
        return self.inputs

    @property
    def partitioning(self) -> tuple[str, ...] | None:
        return None  # concatenated partition lists lose any keyed placement

    def _describe_line(self) -> str:
        return f"Union({len(self.inputs)} inputs)"


def _infer_type(expression: Expression, schema: TableSchema) -> str:
    """Output type of a projection expression."""
    if isinstance(expression, ColumnRef):
        return schema.column(expression.name).type
    value = expression.value  # a LiteralValue (checked in Project)
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "double"
    return "string"
