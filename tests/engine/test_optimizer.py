"""Optimizer tests: pushdown placement, pruning, and semantic preservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import (
    ClusterConfig,
    EngineSession,
    Filter,
    Join,
    Project,
    SimulatedCluster,
    TableScan,
    col,
    lit,
    optimize,
    split_conjuncts,
)
from repro.engine.logical import Explode
from repro.engine.optimizer import rewrite_columns

KV = TableSchema([ColumnSchema("s", "string"), ColumnSchema("o", "string")])


def make_session() -> EngineSession:
    return EngineSession(SimulatedCluster(ClusterConfig(num_workers=2)))


def plan_types(plan) -> list[str]:
    names = [type(plan).__name__]
    for child in plan.children:
        names.extend(plan_types(child))
    return names


class TestSplitConjuncts:
    def test_flat_expression_passes_through(self):
        expr = col("s") == lit("a")
        assert split_conjuncts(expr) == [expr]

    def test_nested_ands_flatten(self):
        expr = (col("s") == lit("a")) & (col("o") == lit("b")) & (col("s") == lit("c"))
        assert len(split_conjuncts(expr)) == 3

    def test_or_not_split(self):
        """A SPARQL `||` filter is one opaque conjunct to the engine."""
        from repro.core import SparqlCondition
        from repro.sparql.algebra import Comparison, Or, Variable

        either = SparqlCondition(
            Or(
                (
                    Comparison("=", Variable("s"), Variable("o")),
                    Comparison("!=", Variable("s"), Variable("o")),
                )
            )
        )
        parts = split_conjuncts((col("s") == lit("a")) & either)
        assert len(parts) == 2 and parts[1] is either


class TestRewriteColumns:
    def test_rename_applies(self):
        expr = rewrite_columns(col("x") == lit(1), {"x": "s"})
        assert expr.references() == {"s"}

    def test_unmapped_reference_returns_none(self):
        assert rewrite_columns(col("x") == col("y"), {"x": "s"}) is None

    def test_complex_expression_rewritten(self):
        expr = (col("x") == lit(1)) & col("x").is_not_null() & col("x").contains_element("a")
        rewritten = rewrite_columns(expr, {"x": "s"})
        assert rewritten.references() == {"s"}


class TestFilterPushdown:
    def test_filter_sinks_below_rename_project(self):
        scan = TableScan("t", KV)
        plan = Filter(
            Project(scan, (("x", col("s")), ("y", col("o")))),
            col("x") == lit("a"),
        )
        optimized = optimize(plan)
        types = plan_types(optimized)
        # Filter must now sit under the project, directly on the scan.
        assert types.index("Project") < types.index("Filter")

    def test_filter_splits_across_join_sides(self):
        left = Project(TableScan("t", KV), (("a", col("s")), ("k", col("o"))))
        right = Project(TableScan("u", KV), (("b", col("s")), ("k", col("o"))))
        plan = Filter(
            Join(left, right, on=("k",)),
            (col("a") == lit("1")) & (col("b") == lit("2")),
        )
        optimized = optimize(plan)
        assert isinstance(optimized, Join)  # no filter left on top
        left_types = plan_types(optimized.left)
        right_types = plan_types(optimized.right)
        assert "Filter" in left_types and "Filter" in right_types

    def test_cross_join_condition_stays_on_top(self):
        left = Project(TableScan("t", KV), (("a", col("s")),))
        right = Project(TableScan("u", KV), (("b", col("s")),))
        plan = Filter(Join(left, right, on=(), how="cross"), col("a") == col("b"))
        optimized = optimize(plan)
        assert isinstance(optimized, Filter)

    def test_filter_on_exploded_column_stays_above_explode(self):
        schema = TableSchema([ColumnSchema("s", "string"), ColumnSchema("xs", "list<string>")])
        plan = Filter(
            Explode(TableScan("t", schema), "xs", "x"),
            col("x") == lit("a"),
        )
        optimized = optimize(plan)
        assert isinstance(optimized, Filter)
        assert isinstance(optimized.child, Explode)

    def test_filter_on_other_column_passes_explode(self):
        schema = TableSchema([ColumnSchema("s", "string"), ColumnSchema("xs", "list<string>")])
        plan = Filter(
            Explode(TableScan("t", schema), "xs", "x"),
            col("s") == lit("a"),
        )
        optimized = optimize(plan)
        assert isinstance(optimized, Explode)


class TestColumnPruning:
    def test_scan_pruned_to_projected_columns(self):
        plan = Project(TableScan("t", KV), (("x", col("s")),))
        optimized = optimize(plan)
        scan = optimized.children[0]
        assert isinstance(scan, TableScan)
        assert scan.columns == ("s",)

    def test_join_keys_kept_during_pruning(self):
        left = Project(TableScan("t", KV), (("k", col("s")), ("a", col("o"))))
        right = Project(TableScan("u", KV), (("k", col("s")), ("b", col("o"))))
        join = Join(left, right, on=("k",))
        final = Project(join, (("a", col("a")),))
        optimized = optimize(final)
        # Both scans must still read their join key column "s".
        scans = [p for p in _walk(optimized) if isinstance(p, TableScan)]
        assert all("s" in scan.columns for scan in scans)


def _walk(plan):
    yield plan
    for child in plan.children:
        yield from _walk(child)


# -- semantic preservation (property-based) -----------------------------------

_VALUES = ["a", "b", "c", None]
_rows = st.lists(
    st.tuples(st.sampled_from(_VALUES), st.sampled_from(_VALUES)), max_size=25
)


@given(_rows, _rows, st.sampled_from(["a", "b", "zzz"]))
@settings(max_examples=40, deadline=None)
def test_property_optimizer_preserves_join_filter_semantics(left_rows, right_rows, constant):
    """Optimized and unoptimized plans agree on a filter-over-join query."""
    session = make_session()
    session.register_rows("l", KV, left_rows)
    session.register_rows(
        "r", TableSchema([ColumnSchema("s", "string"), ColumnSchema("w", "string")]),
        right_rows,
    )
    frame = (
        session.table("l")
        .rename({"o": "v"})
        .join(session.table("r").rename({"w": "u"}), on=["s"])
        .filter(col("v") == lit(constant))
    )
    def row_key(row):
        return tuple((value is None, value or "") for value in row)

    optimized = sorted(frame.collect(run_optimizer=True), key=row_key)
    raw = sorted(frame.collect(run_optimizer=False), key=row_key)
    assert optimized == raw
