"""Column expressions for filters and projections.

A small Catalyst-style expression tree. Expressions are built with
:func:`col` and :func:`lit` plus operators::

    (col("age") > lit(18)) & col("email").is_not_null()

Before execution an expression is *bound* to a schema, producing a plain
Python closure over one row — the moral equivalent of Spark's whole-stage
codegen, and the reason per-row evaluation stays cheap.

Filters over column batches (:mod:`repro.vector`) compile the same tree
via :meth:`Expression.bind_vector` into a **selection-vector kernel**:
``fn(columns, sel) -> new_sel``, taking the batch's column vectors and the
ordered live row indices and returning the surviving indices in order. Hot
nodes (equality against a constant, column-to-column equality, IS NOT
NULL, AND chains) override it with single list comprehensions over one
column; everything else falls back to the row closure evaluated through a
:class:`_ColumnsRow` cursor, so a kernel and its closure cannot disagree.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..columnar.schema import TableSchema
from ..errors import PlanError

#: A bound expression: evaluates one row tuple to a value.
BoundExpression = Callable[[tuple], object]

#: A vector-bound predicate: ``(columns, sel) -> new_sel``, filtering the
#: ordered live indices ``sel`` against the batch's column vectors.
VectorPredicate = Callable[[tuple, Sequence[int]], list]


class _ColumnsRow:
    """A movable row cursor over column vectors.

    Quacks like a row tuple for :meth:`Expression.bind` closures —
    ``row[j]`` reads column ``j`` at the cursor's current row — so any
    expression without a dedicated vector kernel evaluates its existing
    row closure against batches without materializing tuples.
    """

    __slots__ = ("columns", "index")

    def __init__(self, columns: tuple):
        self.columns = columns
        self.index = 0

    def __getitem__(self, position: int):
        return self.columns[position][self.index]


class Expression:
    """Base class for all expression nodes."""

    def references(self) -> set[str]:
        """Column names this expression reads."""
        raise NotImplementedError

    def bind(self, schema: TableSchema) -> BoundExpression:
        """Compile to a closure over row tuples laid out as ``schema``."""
        raise NotImplementedError

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        """Compile to a selection-vector kernel over column batches.

        The default adapts the row closure through a :class:`_ColumnsRow`
        cursor; subclasses with columnar fast paths override it.
        """
        predicate = self.bind(schema)

        def evaluate(columns: tuple, sel: Sequence[int]) -> list:
            row = _ColumnsRow(columns)
            out = []
            append = out.append
            for i in sel:
                row.index = i
                if predicate(row):
                    append(i)
            return out

        return evaluate

    def describe(self) -> str:
        """Human-readable form for plan explanations."""
        raise NotImplementedError

    # -- operator sugar ------------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        return BinaryComparison("=", self, _as_expression(other))

    def __ne__(self, other):  # type: ignore[override]
        return BinaryComparison("!=", self, _as_expression(other))

    def __lt__(self, other):
        return BinaryComparison("<", self, _as_expression(other))

    def __le__(self, other):
        return BinaryComparison("<=", self, _as_expression(other))

    def __gt__(self, other):
        return BinaryComparison(">", self, _as_expression(other))

    def __ge__(self, other):
        return BinaryComparison(">=", self, _as_expression(other))

    def __and__(self, other):
        return BooleanOp("and", (self, _as_expression(other)))

    def __or__(self, other):
        return BooleanOp("or", (self, _as_expression(other)))

    def __invert__(self):
        return Not(self)

    def __hash__(self):
        return id(self)

    def is_not_null(self) -> "Expression":
        """SQL ``IS NOT NULL``."""
        return NotNull(self)

    def is_null(self) -> "Expression":
        """SQL ``IS NULL``."""
        return Not(NotNull(self))

    def contains_element(self, value) -> "Expression":
        """``array_contains`` analogue for list-typed columns."""
        return ArrayContains(self, _as_expression(value))

    def rlike(self, pattern: str) -> "Expression":
        """Regex match (Spark's ``rlike``)."""
        return RegexMatch(self, pattern)


def _as_expression(value) -> Expression:
    if isinstance(value, Expression):
        return value
    return LiteralValue(value)


@dataclass(eq=False)
class ColumnRef(Expression):
    """A reference to a named column."""

    name: str

    def references(self) -> set[str]:
        return {self.name}

    def bind(self, schema: TableSchema) -> BoundExpression:
        index = schema.index_of(self.name)
        return lambda row: row[index]

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        index = schema.index_of(self.name)

        def evaluate(columns: tuple, sel: Sequence[int]) -> list:
            column = columns[index]
            return [i for i in sel if column[i]]

        return evaluate

    def describe(self) -> str:
        return self.name


@dataclass(eq=False)
class LiteralValue(Expression):
    """A constant."""

    value: object

    def references(self) -> set[str]:
        return set()

    def bind(self, schema: TableSchema) -> BoundExpression:
        value = self.value
        return lambda row: value

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        if self.value:
            return lambda columns, sel: list(sel)
        return lambda columns, sel: []

    def describe(self) -> str:
        return repr(self.value)


_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(eq=False)
class BinaryComparison(Expression):
    """A comparison; NULL operands make the result false (SQL-like)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise PlanError(f"unknown comparison operator {self.op!r}")

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def bind(self, schema: TableSchema) -> BoundExpression:
        # Equality is the hot filter (every pattern constant compiles to
        # one); `==` between cells never raises, and a non-NULL constant
        # can never equal a NULL cell, so the guards fold away.
        if self.op == "=":
            if isinstance(self.left, ColumnRef) and isinstance(self.right, LiteralValue):
                if self.right.value is not None:
                    index = schema.index_of(self.left.name)
                    value = self.right.value
                    return lambda row: row[index] == value
            elif isinstance(self.left, ColumnRef) and isinstance(self.right, ColumnRef):
                i = schema.index_of(self.left.name)
                j = schema.index_of(self.right.name)
                return lambda row: row[i] == row[j] and row[i] is not None

        compare = _COMPARATORS[self.op]
        left = self.left.bind(schema)
        right = self.right.bind(schema)

        def evaluate(row: tuple):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False
            try:
                return compare(a, b)
            except TypeError:
                return False

        return evaluate

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        # The same two hot shapes as `bind`, as single comprehensions over
        # one or two column vectors — the engine's tightest loop.
        if self.op == "=":
            if isinstance(self.left, ColumnRef) and isinstance(self.right, LiteralValue):
                if self.right.value is not None:
                    index = schema.index_of(self.left.name)
                    value = self.right.value

                    def equals_literal(columns: tuple, sel: Sequence[int]) -> list:
                        column = columns[index]
                        return [i for i in sel if column[i] == value]

                    return equals_literal
            elif isinstance(self.left, ColumnRef) and isinstance(self.right, ColumnRef):
                left_index = schema.index_of(self.left.name)
                right_index = schema.index_of(self.right.name)

                def equals_column(columns: tuple, sel: Sequence[int]) -> list:
                    a = columns[left_index]
                    b = columns[right_index]
                    return [i for i in sel if a[i] == b[i] and a[i] is not None]

                return equals_column
        return super().bind_vector(schema)

    def describe(self) -> str:
        return f"({self.left.describe()} {self.op} {self.right.describe()})"


@dataclass(eq=False)
class BooleanOp(Expression):
    """N-ary AND / OR."""

    op: str
    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise PlanError(f"unknown boolean operator {self.op!r}")
        if not self.operands:
            raise PlanError("boolean operator needs at least one operand")

    def references(self) -> set[str]:
        refs: set[str] = set()
        for operand in self.operands:
            refs |= operand.references()
        return refs

    def bind(self, schema: TableSchema) -> BoundExpression:
        bound = [operand.bind(schema) for operand in self.operands]
        # Conjunctions of two or three predicates are the common compiled
        # filter shape; `and`/`or` short-circuit without the generator
        # machinery that `all()`/`any()` would spin up per row.
        if len(bound) == 1:
            return bound[0]
        if self.op == "and":
            if len(bound) == 2:
                first, second = bound
                return lambda row: first(row) and second(row)
            if len(bound) == 3:
                first, second, third = bound
                return lambda row: first(row) and second(row) and third(row)

            def conjunction(row):
                for fn in bound:
                    if not fn(row):
                        return False
                return True

            return conjunction
        if len(bound) == 2:
            first, second = bound
            return lambda row: first(row) or second(row)
        if len(bound) == 3:
            first, second, third = bound
            return lambda row: first(row) or second(row) or third(row)

        def disjunction(row):
            for fn in bound:
                if fn(row):
                    return True
            return False

        return disjunction

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        bound = [operand.bind_vector(schema) for operand in self.operands]
        if len(bound) == 1:
            return bound[0]
        if self.op == "and":
            # Conjunction narrows the selection operand by operand — each
            # later predicate only touches rows the earlier ones kept.
            def conjunction(columns: tuple, sel: Sequence[int]) -> list:
                out = sel
                for fn in bound:
                    out = fn(columns, out)
                    if not out:
                        return out if isinstance(out, list) else []
                return out if isinstance(out, list) else list(out)

            return conjunction

        def disjunction(columns: tuple, sel: Sequence[int]) -> list:
            # Union of the operands' selections, re-emitted in `sel` order
            # (set membership only — never set iteration — so row order
            # stays deterministic).
            matched: set = set()
            for fn in bound:
                matched.update(fn(columns, sel))
            return [i for i in sel if i in matched]

        return disjunction

    def describe(self) -> str:
        joiner = f" {self.op.upper()} "
        return "(" + joiner.join(op.describe() for op in self.operands) + ")"


@dataclass(eq=False)
class Not(Expression):
    """Logical negation."""

    operand: Expression

    def references(self) -> set[str]:
        return self.operand.references()

    def bind(self, schema: TableSchema) -> BoundExpression:
        inner = self.operand.bind(schema)
        return lambda row: not inner(row)

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        inner = self.operand.bind_vector(schema)

        def complement(columns: tuple, sel: Sequence[int]) -> list:
            matched = set(inner(columns, sel))
            return [i for i in sel if i not in matched]

        return complement

    def describe(self) -> str:
        return f"NOT {self.operand.describe()}"


@dataclass(eq=False)
class NotNull(Expression):
    """``operand IS NOT NULL``."""

    operand: Expression

    def references(self) -> set[str]:
        return self.operand.references()

    def bind(self, schema: TableSchema) -> BoundExpression:
        if isinstance(self.operand, ColumnRef):
            index = schema.index_of(self.operand.name)
            return lambda row: row[index] is not None
        inner = self.operand.bind(schema)
        return lambda row: inner(row) is not None

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        if isinstance(self.operand, ColumnRef):
            index = schema.index_of(self.operand.name)

            def not_null(columns: tuple, sel: Sequence[int]) -> list:
                column = columns[index]
                if type(sel) is range and len(sel) == len(column):
                    # Unselected batch: enumerate beats per-index lookups.
                    return [i for i, value in enumerate(column) if value is not None]
                return [i for i in sel if column[i] is not None]

            return not_null
        return super().bind_vector(schema)

    def describe(self) -> str:
        return f"{self.operand.describe()} IS NOT NULL"


@dataclass(eq=False)
class ArrayContains(Expression):
    """True when a list-valued operand contains the element."""

    operand: Expression
    element: Expression

    def references(self) -> set[str]:
        return self.operand.references() | self.element.references()

    def bind(self, schema: TableSchema) -> BoundExpression:
        inner = self.operand.bind(schema)
        element = self.element.bind(schema)

        def evaluate(row: tuple) -> bool:
            values = inner(row)
            if values is None:
                return False
            return element(row) in values

        return evaluate

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        if isinstance(self.operand, ColumnRef) and isinstance(self.element, LiteralValue):
            index = schema.index_of(self.operand.name)
            element = self.element.value

            def contains(columns: tuple, sel: Sequence[int]) -> list:
                column = columns[index]
                return [
                    i for i in sel if column[i] is not None and element in column[i]
                ]

            return contains
        return super().bind_vector(schema)

    def describe(self) -> str:
        return f"array_contains({self.operand.describe()}, {self.element.describe()})"


@dataclass(eq=False)
class RegexMatch(Expression):
    """Regular-expression search on a string operand (NULL-safe)."""

    operand: Expression
    pattern: str

    def references(self) -> set[str]:
        return self.operand.references()

    def bind(self, schema: TableSchema) -> BoundExpression:
        inner = self.operand.bind(schema)
        compiled = re.compile(self.pattern)

        def evaluate(row: tuple) -> bool:
            value = inner(row)
            if not isinstance(value, str):
                return False
            return compiled.search(value) is not None

        return evaluate

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        if isinstance(self.operand, ColumnRef):
            index = schema.index_of(self.operand.name)
            search = re.compile(self.pattern).search

            def matches(columns: tuple, sel: Sequence[int]) -> list:
                column = columns[index]
                return [
                    i
                    for i in sel
                    if isinstance(column[i], str) and search(column[i]) is not None
                ]

            return matches
        return super().bind_vector(schema)

    def describe(self) -> str:
        return f"{self.operand.describe()} RLIKE {self.pattern!r}"


def col(name: str) -> ColumnRef:
    """Reference a column by name."""
    return ColumnRef(name)


def lit(value) -> LiteralValue:
    """Wrap a constant value."""
    return LiteralValue(value)


def and_all(expressions: list[Expression]) -> Expression | None:
    """Conjoin a list of expressions; ``None`` for an empty list."""
    if not expressions:
        return None
    if len(expressions) == 1:
        return expressions[0]
    return BooleanOp("and", tuple(expressions))
