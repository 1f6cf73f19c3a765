"""DataFrame API tests: laziness, transformations, error handling."""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import ClusterConfig, EngineSession, SimulatedCluster, col, lit
from repro.errors import PlanError

KV = TableSchema([ColumnSchema("s", "string"), ColumnSchema("o", "string")])


def make_session() -> EngineSession:
    session = EngineSession(SimulatedCluster(ClusterConfig(num_workers=2)))
    session.register_rows("t", KV, [("a", "1"), ("b", "2")])
    return session


class TestBasics:
    def test_columns_property(self):
        session = make_session()
        assert session.table("t").columns == ("s", "o")

    def test_transformations_are_lazy(self):
        session = make_session()
        frame = session.table("t").filter(col("s") == lit("a"))
        assert session.cluster.session_metrics.stages == 0  # nothing executed yet
        frame.collect()
        assert session.cluster.session_metrics.stages > 0

    def test_count(self):
        data, _ = make_session().table("t").collect_data_with_report()
        assert data.num_rows == 2

    def test_to_dicts(self):
        """``columns`` names the cells of every collected row, in order."""
        frame = make_session().table("t")
        dicts = [dict(zip(frame.columns, row)) for row in frame.collect()]
        assert {"s": "a", "o": "1"} in dicts

    def test_select_requires_columns(self):
        with pytest.raises(PlanError):
            make_session().table("t").select()

    def test_explain_renders(self):
        text = make_session().table("t").select("s").explain()
        assert "TableScan" in text

    def test_create_dataframe_from_rows(self):
        session = make_session()
        frame = session.create_dataframe(KV, [("x", "y")])
        assert frame.collect() == [("x", "y")]

    def test_repr(self):
        assert "DataFrame" in repr(make_session().table("t"))


class TestCrossSessionSafety:
    def test_join_across_sessions_rejected(self):
        a = make_session()
        b = make_session()
        with pytest.raises(PlanError):
            a.table("t").join(b.table("t"), on=["s"])

    def test_union_across_sessions_rejected(self):
        a = make_session()
        b = make_session()
        with pytest.raises(PlanError):
            a.table("t").union(b.table("t"))


class TestChaining:
    def test_filter_select_chain(self):
        session = make_session()
        rows = (
            session.table("t")
            .filter(col("o") == lit("2"))
            .select(("subject", col("s")))
            .collect()
        )
        assert rows == [("b",)]

    def test_rename_then_join_on_new_name(self):
        session = make_session()
        session.register_rows(
            "u", TableSchema([ColumnSchema("k", "string"), ColumnSchema("w", "string")]),
            [("a", "x")],
        )
        left = session.table("t").rename({"s": "k"})
        rows = left.join(session.table("u"), on=["k"]).collect()
        assert rows == [("a", "1", "x")]

    def test_collect_data_with_report_returns_both(self):
        session = make_session()
        data, report = session.table("t").collect_data_with_report()
        assert len(data.all_rows()) == 2
        assert report.metrics.rows_output == 2
        assert "TableScan" in report.explain()
