"""Engine aggregation operator tests."""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import ClusterConfig, EngineSession, SimulatedCluster
from repro.errors import PlanError

KV = TableSchema([ColumnSchema("k", "string"), ColumnSchema("v", "string")])


def make_session() -> EngineSession:
    session = EngineSession(SimulatedCluster(ClusterConfig(num_workers=3)))
    session.register_rows(
        "t", KV,
        [("a", "1"), ("a", "2"), ("b", "1"), ("a", "1"), ("c", None), (None, "9")],
    )
    return session


class TestGroupedCounts:
    def test_count_column_skips_nulls(self):
        rows = make_session().table("t").group_aggregate(
            ["k"], [("count", "v", "n")]
        ).collect()
        assert dict((r[0], r[1]) for r in rows) == {"a": 3, "b": 1, "c": 0, None: 1}

    def test_count_rows(self):
        rows = make_session().table("t").group_aggregate(
            ["k"], [("count", None, "n")]
        ).collect()
        assert dict((r[0], r[1]) for r in rows) == {"a": 3, "b": 1, "c": 1, None: 1}

    def test_count_distinct(self):
        rows = make_session().table("t").group_aggregate(
            ["k"], [("count_distinct", "v", "n")]
        ).collect()
        assert dict((r[0], r[1]) for r in rows) == {"a": 2, "b": 1, "c": 0, None: 1}

    def test_multiple_aggregates_in_one_pass(self):
        rows = make_session().table("t").group_aggregate(
            ["k"], [("count", "v", "n"), ("count_distinct", "v", "d")]
        ).collect()
        a_row = [r for r in rows if r[0] == "a"][0]
        assert a_row == ("a", 3, 2)


class TestGlobalCounts:
    def test_global_count(self):
        rows = make_session().table("t").group_aggregate(
            [], [("count", None, "total")]
        ).collect()
        assert rows == [(6,)]

    def test_global_count_on_empty_input_is_zero(self):
        session = make_session()
        empty = session.create_dataframe(KV, [])
        assert empty.group_aggregate([], [("count", None, "n")]).collect() == [(0,)]

    def test_count_distinct_whole_rows(self):
        rows = make_session().table("t").group_aggregate(
            [], [("count_distinct", None, "n")]
        ).collect()
        assert rows == [(5,)]  # ("a","1") appears twice


class TestSchemaAndValidation:
    def test_output_schema(self):
        frame = make_session().table("t").group_aggregate(["k"], [("count", "v", "n")])
        assert frame.columns == ("k", "n")
        assert frame.schema.column("n").type == "int"

    def test_unknown_key_rejected(self):
        with pytest.raises(PlanError):
            make_session().table("t").group_aggregate(["zzz"], [("count", None, "n")])

    def test_unknown_input_rejected(self):
        with pytest.raises(PlanError):
            make_session().table("t").group_aggregate(["k"], [("count", "zzz", "n")])

    def test_unknown_op_rejected(self):
        with pytest.raises(PlanError):
            make_session().table("t").group_aggregate(["k"], [("sum", "v", "n")])

    def test_output_name_clash_rejected(self):
        with pytest.raises(PlanError):
            make_session().table("t").group_aggregate(["k"], [("count", "v", "k")])

    def test_no_aggregates_rejected(self):
        with pytest.raises(PlanError):
            make_session().table("t").group_aggregate(["k"], [])


class TestCostAccounting:
    def test_partial_aggregation_shuffles_groups_not_rows(self):
        session = EngineSession(SimulatedCluster(ClusterConfig(num_workers=3)))
        rows = [(f"k{i % 4}", str(i)) for i in range(1000)]
        session.register_rows("big", KV, rows)
        frame = session.table("big").group_aggregate(["k"], [("count", None, "n")])
        _, report = frame.collect_data_with_report()
        # At most partitions × groups partial states cross the network.
        assert report.metrics.shuffle_rows <= 6 * 4
        assert report.metrics.shuffle_rows < 1000

    def test_optimizer_prunes_unused_columns(self):
        session = make_session()
        session.register_rows(
            "w",
            TableSchema([ColumnSchema(c, "string") for c in ("a", "b", "c")]),
            [("x", "y", "z")] * 10,
            persist_path="/w",
        )
        frame = session.table("w").group_aggregate(["a"], [("count", "b", "n")])
        plan = frame.explain()
        assert "columns=['a', 'b']" in plan
