"""Logical plan tests: schema derivation and validation."""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import col, lit
from repro.engine.logical import (
    Distinct,
    Explode,
    Filter,
    InMemoryRelation,
    Join,
    Project,
    TableScan,
    Union,
)
from repro.errors import PlanError

SCHEMA = TableSchema(
    [
        ColumnSchema("s", "string"),
        ColumnSchema("o", "string"),
        ColumnSchema("tags", "list<string>"),
    ]
)


def scan() -> TableScan:
    return TableScan("t", SCHEMA)


class TestScanAndLocal:
    def test_scan_schema(self):
        assert scan().schema == SCHEMA

    def test_pruned_scan_schema(self):
        plan = TableScan("t", SCHEMA, columns=("o",))
        assert plan.schema.names == ("o",)

    def test_local_relation(self):
        relation = InMemoryRelation(SCHEMA, (("a", "b", None),))
        assert relation.schema == SCHEMA
        assert relation.children == ()


class TestFilterProject:
    def test_filter_keeps_schema(self):
        plan = Filter(scan(), col("s") == lit("a"))
        assert plan.schema == SCHEMA

    def test_filter_unknown_column_rejected(self):
        with pytest.raises(PlanError):
            Filter(scan(), col("zzz") == lit("a"))

    def test_project_renames_and_types(self):
        plan = Project(scan(), (("subject", col("s")), ("marker", lit(1))))
        assert plan.schema.names == ("subject", "marker")
        assert plan.schema.column("subject").type == "string"
        assert plan.schema.column("marker").type == "int"

    def test_project_duplicate_outputs_rejected(self):
        with pytest.raises(PlanError):
            Project(scan(), (("a", col("s")), ("a", col("o"))))

    def test_project_unknown_reference_rejected(self):
        with pytest.raises(PlanError):
            Project(scan(), (("a", col("zzz")),))

    def test_rename_only_detection(self):
        assert Project(scan(), (("x", col("s")),)).is_rename_only
        assert not Project(scan(), (("x", lit(1)),)).is_rename_only


class TestJoin:
    def test_join_schema_merges_without_duplicate_keys(self):
        left = Project(scan(), (("k", col("s")), ("a", col("o"))))
        right = Project(scan(), (("k", col("s")), ("b", col("o"))))
        join = Join(left, right, on=("k",))
        assert join.schema.names == ("k", "a", "b")

    def test_semi_join_keeps_left_schema(self):
        left = Project(scan(), (("k", col("s")), ("a", col("o"))))
        right = Project(scan(), (("k", col("s")),))
        join = Join(left, right, on=("k",), how="semi")
        assert join.schema.names == ("k", "a")

    def test_missing_key_rejected(self):
        left = Project(scan(), (("a", col("s")),))
        right = Project(scan(), (("b", col("s")),))
        with pytest.raises(PlanError):
            Join(left, right, on=("a",))

    def test_empty_keys_rejected_for_inner(self):
        with pytest.raises(PlanError):
            Join(scan(), scan(), on=())

    def test_cross_join_requires_disjoint_columns(self):
        with pytest.raises(PlanError):
            Join(scan(), scan(), on=(), how="cross")
        left = Project(scan(), (("a", col("s")),))
        right = Project(scan(), (("b", col("s")),))
        cross = Join(left, right, on=(), how="cross")
        assert cross.schema.names == ("a", "b")

    def test_unknown_how_and_hint_rejected(self):
        with pytest.raises(PlanError):
            Join(scan(), scan(), on=("s",), how="full")
        with pytest.raises(PlanError):
            Join(scan(), scan(), on=("s",), hint="sort-merge")


class TestOtherOperators:
    def test_explode_rewrites_column_type(self):
        plan = Explode(scan(), "tags", output_name="tag")
        assert plan.schema.column("tag").type == "string"
        assert not plan.schema.has_column("tags")

    def test_explode_requires_list_column(self):
        with pytest.raises(PlanError):
            Explode(scan(), "s")

    def test_distinct_keeps_schema(self):
        assert Distinct(scan()).schema == SCHEMA

    def test_union_schema_checks(self):
        with pytest.raises(PlanError):
            Union((scan(),))
        other = Project(scan(), (("x", col("s")),))
        with pytest.raises(PlanError):
            Union((scan(), other))
        assert Union((scan(), scan())).schema == SCHEMA

    def test_describe_renders_tree(self):
        plan = Filter(scan(), col("s") == lit("a"))
        text = plan.describe()
        assert "Filter" in text and "TableScan" in text
