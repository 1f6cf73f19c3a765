"""Expression tree tests: kernels, NULL semantics, rejected shapes, describe.

Every predicate is evaluated the only way the engine evaluates one: its
``bind_vector`` selection-vector kernel, here over a one-row batch.
"""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import Filter, Project, TableScan, col, lit
from repro.engine.expressions import BinaryComparison, BooleanOp, and_all
from repro.errors import PlanError, SchemaError

SCHEMA = TableSchema(
    [
        ColumnSchema("name", "string"),
        ColumnSchema("age", "int"),
        ColumnSchema("tags", "list<string>"),
    ]
)


def run(expression, row, schema=SCHEMA):
    columns = tuple([value] for value in row)
    return expression.bind_vector(schema)(columns, range(1)) == [0]


class TestComparisons:
    def test_equality(self):
        assert run(col("name") == lit("a"), ("a", 1, [])) is True
        assert run(col("name") == lit("a"), ("b", 1, [])) is False
        assert run(col("name") == "a", ("a", 1, []))  # bare values are wrapped

    def test_null_operand_is_false(self):
        assert run(col("age") == lit(5), ("a", None, [])) is False

    def test_type_mismatch_is_false(self):
        assert run(col("name") == lit(5), ("a", 1, [])) is False

    def test_column_to_column(self):
        schema = TableSchema([ColumnSchema("a", "int"), ColumnSchema("b", "int")])
        expr = col("a") == col("b")
        assert run(expr, (3, 3), schema)
        assert not run(expr, (3, 4), schema)
        assert not run(expr, (None, None), schema)  # NULL equals nothing


class TestBooleanOps:
    def test_and(self):
        expr = col("age").is_not_null() & (col("name") == lit("a"))
        assert run(expr, ("a", 2, []))
        assert not run(expr, ("b", 2, []))
        assert not run(expr, ("a", None, []))

    def test_and_all_helper(self):
        assert and_all([]) is None
        single = col("age") == lit(2)
        assert and_all([single]) is single
        combined = and_all([single, col("name") == lit("a")])
        assert run(combined, ("a", 2, []))
        assert not run(combined, ("a", 3, []))

    def test_and_narrows_the_selection_in_order(self):
        kernel = ((col("age") == lit(2)) & col("name").is_not_null()).bind_vector(SCHEMA)
        columns = (["a", None, "c", "d"], [2, 2, 3, 2], [[], [], [], []])
        assert kernel(columns, range(4)) == [0, 3]
        assert kernel(columns, [3, 1]) == [3]


class TestPredicates:
    def test_is_not_null(self):
        assert run(col("age").is_not_null(), ("a", 1, []))
        assert not run(col("age").is_not_null(), ("a", None, []))
        kernel = col("age").is_not_null().bind_vector(SCHEMA)
        columns = (["a", "b", "c"], [1, None, 3], [[], [], []])
        assert kernel(columns, range(3)) == [0, 2]  # unselected-batch fast path
        assert kernel(columns, [2, 1]) == [2]

    def test_array_contains(self):
        expr = col("tags").contains_element(lit("x"))
        assert run(expr, ("a", 1, ["x", "y"]))
        assert not run(expr, ("a", 1, ["y"]))
        assert not run(expr, ("a", 1, None))


class TestStructure:
    def test_references_collected(self):
        expr = (col("age") == lit(1)) & col("name").is_not_null()
        assert expr.references() == {"age", "name"}
        assert col("tags").contains_element("x").references() == {"tags"}

    def test_binding_unknown_column_rejected(self):
        with pytest.raises(SchemaError):
            col("zzz").is_not_null().bind_vector(SCHEMA)

    def test_unknown_comparison_operator_rejected(self):
        with pytest.raises(PlanError):
            BinaryComparison("<>", col("a"), lit(1))

    def test_describe_is_readable(self):
        expr = (col("age") == lit(18)) & col("tags").contains_element(lit("x"))
        text = expr.describe()
        assert "age" in text and "=" in text and "array_contains" in text


SCAN = TableScan("t", SCHEMA)

#: Every shape the engine has no kernel for, by the way a caller could try to
#: build it; all must fail when the expression or plan node is constructed.
REJECTED = {
    "ordering comparator": lambda: BinaryComparison(">", col("age"), lit(5)),
    "inequality": lambda: Filter(SCAN, col("age") != lit(5)),  # `!=` yields a bool
    "or": lambda: BooleanOp("or", (col("age") == lit(1), col("age") == lit(2))),
    "null constant": lambda: col("age") == lit(None),
    "constant on the left": lambda: lit(1) == col("age"),
    "constant = constant": lambda: lit(1) == lit(1),
    "comparison of a predicate": lambda: (col("age") == lit(1)) == lit(True),
    "is_not_null of a constant": lambda: lit(1).is_not_null(),
    "is_not_null of a predicate": lambda: (col("age") == lit(1)).is_not_null(),
    "array_contains a column": lambda: col("tags").contains_element(col("name")),
    "array_contains in a constant": lambda: lit(["x"]).contains_element("x"),
    "and of a column": lambda: col("age") & (col("name") == lit("a")),
    "and of a constant": lambda: (col("name") == lit("a")) & lit(True),
    "empty and": lambda: BooleanOp("and", ()),
    "filter on a column": lambda: Filter(SCAN, col("name")),
    "filter on a constant": lambda: Filter(SCAN, lit(True)),
    "computed project output": lambda: Project(SCAN, (("x", col("age") == lit(1)),)),
}


@pytest.mark.parametrize("shape", sorted(REJECTED))
def test_shape_without_a_kernel_is_rejected_at_construction(shape):
    with pytest.raises(PlanError):
        REJECTED[shape]()
