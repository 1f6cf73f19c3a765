"""Column expressions for filters and projections.

The expression set is exactly what the five systems' planners emit (paper
§3.2 compiles a Join Tree to ``=``, ``IS NOT NULL`` and ``array_contains``
selections): two value nodes — :func:`col` and :func:`lit`, which are also
the only projection outputs — and four predicates built from them::

    (col("s") == lit(7)) & col("email").is_not_null()

    col = lit | col = col | col IS NOT NULL | array_contains(col, lit) | AND

(:class:`~repro.core.filters.SparqlCondition` adds SPARQL FILTER semantics
on top.) Any other operand shape is rejected with
:class:`~repro.errors.PlanError` when the node is constructed.

A predicate is compiled once per filter by :meth:`Expression.bind_vector`
into a **selection-vector kernel**: ``fn(columns, sel) -> new_sel``, taking
a batch's column vectors and the ordered live row indices and returning the
surviving indices in order — one list comprehension over one or two column
vectors. There is no per-row evaluation mode. Ordering and slicing are not
expressions or operators of the engine at all: ORDER BY / LIMIT / OFFSET
run in :func:`repro.core.results.finalize_solutions`, on decoded terms.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..columnar.schema import TableSchema
from ..errors import PlanError

#: A vector-bound predicate: ``(columns, sel) -> new_sel``, filtering the
#: ordered live indices ``sel`` against the batch's column vectors.
VectorPredicate = Callable[[tuple, Sequence[int]], list]


class Expression:
    """Base class for all expression nodes."""

    def references(self) -> set[str]:
        """Column names this expression reads."""
        raise NotImplementedError

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        """Compile a predicate to a selection-vector kernel over batches
        laid out as ``schema`` (value nodes have none)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable form for plan explanations."""
        raise NotImplementedError

    # -- operator sugar ------------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        return BinaryComparison("=", self, _as_expression(other))

    def __and__(self, other):
        return BooleanOp("and", (self, _as_expression(other)))

    def __hash__(self):
        return id(self)

    def is_not_null(self) -> "Expression":
        """SQL ``IS NOT NULL``."""
        return NotNull(self)

    def contains_element(self, value) -> "Expression":
        """``array_contains`` analogue for list-typed columns."""
        return ArrayContains(self, _as_expression(value))


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

    def describe(self) -> str:
        return self.name


@dataclass(eq=False)
class LiteralValue(Expression):
    """A constant."""

    value: object

    def references(self) -> set[str]:
        return set()

    def describe(self) -> str:
        return repr(self.value)


def require_predicate(expression, where: str) -> None:
    """Reject anything but a predicate node as a filter condition / AND
    operand: a bare column or constant has no truth value here."""
    if not isinstance(expression, Expression) or isinstance(
        expression, (ColumnRef, LiteralValue)
    ):
        raise PlanError(f"{where} must be a predicate, got {expression!r}")


@dataclass(eq=False)
class BinaryComparison(Expression):
    """``column = constant`` or ``column = column``; NULL never matches."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op != "=":
            raise PlanError(f"unknown comparison operator {self.op!r}")
        comparable = isinstance(self.right, ColumnRef) or (
            isinstance(self.right, LiteralValue) and self.right.value is not None
        )  # NULL equals nothing: `= NULL` is never what a planner means
        if not isinstance(self.left, ColumnRef) or not comparable:
            raise PlanError(
                f"no kernel for {self.describe()}: '=' compares a column "
                "with a non-NULL constant or another column"
            )

    def references(self) -> set[str]:
        return self.left.references() | self.right.references()

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        # Equality is the hot filter (every pattern constant compiles to
        # one) and the engine's tightest loop; `==` between cells never
        # raises, and a non-NULL constant can never equal a NULL cell.
        left_index = schema.index_of(self.left.name)
        if isinstance(self.right, LiteralValue):
            value = self.right.value

            def equals_literal(columns: tuple, sel: Sequence[int]) -> list:
                column = columns[left_index]
                return [i for i in sel if column[i] == value]

            return equals_literal
        right_index = schema.index_of(self.right.name)

        def equals_column(columns: tuple, sel: Sequence[int]) -> list:
            a = columns[left_index]
            b = columns[right_index]
            return [i for i in sel if a[i] == b[i] and a[i] is not None]

        return equals_column

    def describe(self) -> str:
        return f"({self.left.describe()} {self.op} {self.right.describe()})"


@dataclass(eq=False)
class BooleanOp(Expression):
    """N-ary AND of predicates."""

    op: str
    operands: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.op != "and":
            raise PlanError(f"unknown boolean operator {self.op!r}")
        if not self.operands:
            raise PlanError("boolean operator needs at least one operand")
        for operand in self.operands:
            require_predicate(operand, "AND operand")

    def references(self) -> set[str]:
        refs: set[str] = set()
        for operand in self.operands:
            refs |= operand.references()
        return refs

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        bound = [operand.bind_vector(schema) for operand in self.operands]
        if len(bound) == 1:
            return bound[0]

        # Conjunction narrows the selection operand by operand — each
        # later predicate only touches rows the earlier ones kept.
        def conjunction(columns: tuple, sel: Sequence[int]) -> list:
            out = sel
            for fn in bound:
                out = fn(columns, out)
                if not out:
                    break
            return out

        return conjunction

    def describe(self) -> str:
        return "(" + " AND ".join(op.describe() for op in self.operands) + ")"


@dataclass(eq=False)
class NotNull(Expression):
    """``column IS NOT NULL``."""

    operand: Expression

    def __post_init__(self) -> None:
        if not isinstance(self.operand, ColumnRef):
            raise PlanError(
                f"no kernel for {self.describe()}: IS NOT NULL tests a column"
            )

    def references(self) -> set[str]:
        return self.operand.references()

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        index = schema.index_of(self.operand.name)

        def not_null(columns: tuple, sel: Sequence[int]) -> list:
            column = columns[index]
            if type(sel) is range and len(sel) == len(column):
                # Unselected batch: enumerate beats per-index lookups.
                return [i for i, value in enumerate(column) if value is not None]
            return [i for i in sel if column[i] is not None]

        return not_null

    def describe(self) -> str:
        return f"{self.operand.describe()} IS NOT NULL"


@dataclass(eq=False)
class ArrayContains(Expression):
    """True when a list-valued column contains the constant element."""

    operand: Expression
    element: Expression

    def __post_init__(self) -> None:
        if not isinstance(self.operand, ColumnRef) or not isinstance(
            self.element, LiteralValue
        ):
            raise PlanError(
                f"no kernel for {self.describe()}: array_contains tests a "
                "list column for a constant"
            )

    def references(self) -> set[str]:
        return self.operand.references()

    def bind_vector(self, schema: TableSchema) -> VectorPredicate:
        index = schema.index_of(self.operand.name)
        element = self.element.value

        def contains(columns: tuple, sel: Sequence[int]) -> list:
            column = columns[index]
            return [i for i in sel if column[i] is not None and element in column[i]]

        return contains

    def describe(self) -> str:
        return f"array_contains({self.operand.describe()}, {self.element.describe()})"


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
