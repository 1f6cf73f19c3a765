"""Physical execution tests: every operator, join strategies, metrics."""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import ClusterConfig, EngineSession, SimulatedCluster, col, lit
from repro.errors import PlanError

KV = TableSchema([ColumnSchema("k", "string"), ColumnSchema("v", "string")])


def make_session(**config_overrides) -> EngineSession:
    config = ClusterConfig(num_workers=3, **config_overrides)
    return EngineSession(SimulatedCluster(config))


def session_with_tables(partition_columns=("k",)) -> EngineSession:
    session = make_session()
    session.register_rows(
        "left", KV, [("a", "1"), ("b", "2"), ("c", "3"), ("a", "9")],
        partition_columns=partition_columns,
    )
    session.register_rows(
        "right",
        TableSchema([ColumnSchema("k", "string"), ColumnSchema("w", "string")]),
        [("a", "x"), ("b", "y"), ("d", "z")],
        partition_columns=partition_columns,
    )
    return session


class TestNarrowOperators:
    def test_filter(self):
        session = session_with_tables()
        rows = session.table("left").filter(col("k") == lit("a")).collect()
        assert sorted(rows) == [("a", "1"), ("a", "9")]

    def test_project_with_expression(self):
        """Outputs are columns or constants; a computed one is rejected
        when the plan is built."""
        session = session_with_tables()
        with pytest.raises(PlanError):
            session.table("left").select("k", ("big", col("v") == lit("2")))

    def test_rename(self):
        session = session_with_tables()
        frame = session.table("left").rename({"k": "key"})
        assert frame.columns == ("key", "v")

    def test_explode_drops_empty_and_null(self):
        session = make_session()
        schema = TableSchema([ColumnSchema("k", "string"), ColumnSchema("xs", "list<string>")])
        session.register_rows("t", schema, [("a", ["1", "2"]), ("b", []), ("c", None)])
        rows = session.table("t").explode("xs", "x").collect()
        assert sorted(rows) == [("a", "1"), ("a", "2")]

    def test_explode_renames_column_and_keeps_key_partitioner(self):
        """Renaming a non-key list column via explode leaves the subject
        hash placement intact (the PT multivalued-predicate path)."""
        session = make_session()
        schema = TableSchema([ColumnSchema("k", "string"), ColumnSchema("xs", "list<string>")])
        session.register_rows(
            "pt_like", schema, [("a", ["1", "2"]), ("b", ["3"])], partition_columns=("k",)
        )
        frame = session.table("pt_like").explode("xs", "x")
        assert frame.columns == ("k", "x")
        data, _ = session.execute(frame.plan, run_optimizer=False)
        assert data.partitioner is not None
        assert data.partitioner.columns == ("k",)
        assert sorted(data.all_rows()) == [("a", "1"), ("a", "2"), ("b", "3")]

    def test_explode_on_key_column_invalidates_partitioner(self):
        """Exploding the partitioning column itself rewrites every key, so
        the placement promise no longer holds."""
        session = make_session()
        schema = TableSchema([ColumnSchema("ks", "list<string>"), ColumnSchema("v", "string")])
        session.register_rows(
            "keyed", schema, [(["a", "b"], "1"), (["c"], "2")], partition_columns=("ks",)
        )
        frame = session.table("keyed").explode("ks", "k")
        data, _ = session.execute(frame.plan, run_optimizer=False)
        assert data.partitioner is None
        assert sorted(data.all_rows()) == [("a", "1"), ("b", "1"), ("c", "2")]

    def test_explode_without_rename_keeps_non_key_partitioner(self):
        session = make_session()
        schema = TableSchema([ColumnSchema("k", "string"), ColumnSchema("xs", "list<string>")])
        session.register_rows(
            "pt_keep", schema, [("a", ["1"])], partition_columns=("k",)
        )
        data, _ = session.execute(
            session.table("pt_keep").explode("xs").plan, run_optimizer=False
        )
        assert data.partitioner is not None and data.partitioner.columns == ("k",)


class TestJoins:
    def test_inner_join(self):
        session = session_with_tables()
        rows = session.table("left").join(session.table("right"), on=["k"]).collect()
        assert sorted(rows) == [("a", "1", "x"), ("a", "9", "x"), ("b", "2", "y")]

    def test_left_join_fills_nulls(self):
        session = session_with_tables()
        rows = session.table("left").join(session.table("right"), on=["k"], how="left").collect()
        assert ("c", "3", None) in rows

    def test_semi_join(self):
        """No planner emits a semi join, so ``Join`` rejects it when built."""
        session = session_with_tables()
        with pytest.raises(PlanError, match="unknown join type 'semi'"):
            session.table("left").join(session.table("right"), on=["k"], how="semi")

    def test_anti_join(self):
        """No planner emits an anti join, so ``Join`` rejects it when built."""
        session = session_with_tables()
        with pytest.raises(PlanError, match="unknown join type 'anti'"):
            session.table("left").join(session.table("right"), on=["k"], how="anti")

    def test_cross_join(self):
        session = session_with_tables()
        left = session.table("left").select(("a", col("k")))
        right = session.table("right").select(("b", col("k")))
        rows = left.join(right, on=(), how="cross").collect()
        assert len(rows) == 4 * 3

    def test_null_keys_never_match(self):
        session = make_session()
        session.register_rows("l", KV, [(None, "1"), ("a", "2")])
        session.register_rows(
            "r", TableSchema([ColumnSchema("k", "string"), ColumnSchema("w", "string")]),
            [(None, "x"), ("a", "y")],
        )
        rows = session.table("l").join(session.table("r"), on=["k"]).collect()
        assert rows == [("a", "2", "y")]

    def test_strategies_agree(self):
        """Broadcast, shuffle, and colocated joins give identical results.

        The co-partitioned tables join colocated; unpartitioned, the small
        sides broadcast under ``auto`` and repartition under ``shuffle``."""
        base = session_with_tables()
        expected = sorted(base.table("left").join(base.table("right"), on=["k"]).collect())
        for hint, counter in (("auto", "broadcast_count"), ("shuffle", "shuffle_rows")):
            session = session_with_tables(partition_columns=None)
            frame = session.table("left").join(session.table("right"), on=["k"], hint=hint)
            assert sorted(frame.collect()) == expected
            _, report = frame.collect_data_with_report()
            assert getattr(report.metrics, counter) >= 1
            assert report.metrics.colocated_joins == 0

    def test_colocated_join_avoids_shuffle(self):
        session = session_with_tables()
        frame = session.table("left").join(
            session.table("right"), on=["k"], hint="shuffle"
        )
        # Both tables are hash-partitioned on k at registration: the engine
        # detects co-location even under a shuffle hint? No — the hint forces
        # a shuffle only when sides are NOT already colocated; colocation is
        # checked first.
        _, report = frame.collect_data_with_report()
        assert report.metrics.colocated_joins == 1
        assert report.metrics.shuffle_bytes == 0

    def test_broadcast_join_records_broadcast(self):
        """Sides not partitioned on the key, far under the broadcast
        threshold: the size rule broadcasts the build side."""
        session = session_with_tables(partition_columns=None)
        left = session.table("left").rename({"k": "a"})
        right = session.table("right").rename({"k": "a", "w": "b"})
        frame = left.filter(col("v").is_not_null()).join(right, on=["a"])
        _, report = frame.collect_data_with_report()
        assert report.metrics.broadcast_count >= 1
        assert report.metrics.broadcast_bytes > 0

    def test_broadcast_hint_is_rejected(self):
        """Join hints are ``auto`` and ``shuffle``: broadcasting is the size
        rule's decision, never a planner's."""
        session = session_with_tables()
        with pytest.raises(PlanError):
            session.table("left").join(session.table("right"), on=["k"], hint="broadcast")


class TestWideOperators:
    def test_distinct(self):
        session = make_session()
        session.register_rows("t", KV, [("a", "1"), ("a", "1"), ("b", "2")])
        assert sorted(session.table("t").distinct().collect()) == [("a", "1"), ("b", "2")]

    def test_union(self):
        session = make_session()
        session.register_rows("t", KV, [("a", "1")])
        session.register_rows("u", KV, [("b", "2")])
        rows = session.table("t").union(session.table("u")).collect()
        assert sorted(rows) == [("a", "1"), ("b", "2")]


class TestMetrics:
    def test_scan_bytes_reflect_column_pruning(self):
        session = make_session()
        wide = TableSchema([ColumnSchema(f"c{i}", "string") for i in range(6)])
        rows = [tuple(f"row{r}col{i}" * 3 for i in range(6)) for r in range(50)]
        session.register_rows("w", wide, rows, persist_path="/w")
        _, full = session.table("w").collect_data_with_report()
        _, pruned = session.table("w").select("c0").collect_data_with_report()
        assert pruned.metrics.bytes_scanned < full.metrics.bytes_scanned

    def test_shuffle_join_records_bytes(self):
        session = make_session()
        session.register_rows("l", KV, [(str(i), "x") for i in range(100)])
        session.register_rows(
            "r", TableSchema([ColumnSchema("k", "string"), ColumnSchema("w", "string")]),
            [(str(i), "y") for i in range(100)],
        )
        frame = session.table("l").join(session.table("r"), on=["k"], hint="shuffle")
        _, report = frame.collect_data_with_report()
        assert report.metrics.shuffle_bytes > 0
        assert report.metrics.shuffle_rows == 200

    def test_cost_breakdown_positive(self):
        session = session_with_tables()
        _, report = session.table("left").collect_data_with_report()
        assert report.cost.total_sec > 0
        assert report.simulated_sec == report.cost.total_sec

    def test_data_scale_multiplies_cost(self):
        slow = make_session(data_scale=1000.0)
        slow.register_rows("t", KV, [("a", "1")] * 50, persist_path="/t")
        _, scaled = slow.table("t").collect_data_with_report()
        fast = make_session()
        fast.register_rows("t", KV, [("a", "1")] * 50, persist_path="/t")
        _, unscaled = fast.table("t").collect_data_with_report()
        assert scaled.cost.scan_sec > unscaled.cost.scan_sec * 100
