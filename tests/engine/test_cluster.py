"""Cost model tests: config validation, metric folding, cost math."""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import (
    ClusterConfig,
    EngineSession,
    ExecutionMetrics,
    SimulatedCluster,
    estimate_cost,
)

KV = TableSchema([ColumnSchema("k", "string"), ColumnSchema("v", "string")])


class TestClusterConfig:
    def test_defaults_match_paper_setup(self):
        config = ClusterConfig()
        assert config.num_workers == 9
        assert config.default_partitions == 18

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_workers=0)
        with pytest.raises(ValueError):
            ClusterConfig(partitions_per_worker=0)

    @pytest.mark.parametrize(
        "name",
        [
            "network_bytes_per_sec",
            "scan_bytes_per_sec",
            "rows_per_sec",
            "data_scale",
        ],
    )
    def test_non_positive_rates_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            ClusterConfig(**{name: 0})
        with pytest.raises(ValueError, match=name):
            ClusterConfig(**{name: -1})

    def test_zero_broadcast_threshold_means_never_broadcast(self):
        """0 is the legal spelling of "broadcast off" (the paper ablation):
        an unhinted join of non-empty, non-colocated tables must shuffle."""
        with pytest.raises(ValueError, match="broadcast_threshold_bytes"):
            ClusterConfig(broadcast_threshold_bytes=-1)
        config = ClusterConfig(num_workers=3, broadcast_threshold_bytes=0)
        session = EngineSession(SimulatedCluster(config))
        session.register_rows("l", KV, [("a", "1"), ("b", "2")])
        session.register_rows("r", KV.select(["k"]), [("a",), ("c",)])
        frame = session.table("l").join(session.table("r"), on=["k"])
        rows, report = frame.collect_with_report()
        assert rows == [("a", "1")]
        assert report.metrics.broadcast_count == 0
        assert report.metrics.shuffle_rows == 4

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError, match="task_overhead_sec"):
            ClusterConfig(task_overhead_sec=-0.1)
        ClusterConfig(task_overhead_sec=0.0)  # zero overhead is allowed

    def test_fault_tolerance_knobs_validated(self):
        with pytest.raises(ValueError, match="max_task_attempts"):
            ClusterConfig(max_task_attempts=0)
        with pytest.raises(ValueError, match="speculation_multiplier"):
            ClusterConfig(speculation_multiplier=1.0)
        config = ClusterConfig(max_task_attempts=1, speculation_multiplier=1.01)
        assert config.max_task_attempts == 1

    @pytest.mark.parametrize("name", ["memory_budget_bytes", "query_timeout_sec"])
    def test_governance_knobs_validated(self, name):
        with pytest.raises(ValueError, match=name):
            ClusterConfig(**{name: 0})
        with pytest.raises(ValueError, match=name):
            ClusterConfig(**{name: -1})
        assert getattr(ClusterConfig(**{name: 1}), name) == 1
        assert getattr(ClusterConfig(), name) is None  # optional: off by default

    def test_max_concurrent_queries_validated(self):
        with pytest.raises(ValueError, match="max_concurrent_queries"):
            ClusterConfig(max_concurrent_queries=0)
        with pytest.raises(ValueError, match="max_concurrent_queries"):
            ClusterConfig(max_concurrent_queries=True)  # bools are not counts

    def test_spill_dir_validated(self):
        with pytest.raises(ValueError, match="spill_dir"):
            ClusterConfig(spill_dir="")
        with pytest.raises(ValueError, match="spill_dir"):
            ClusterConfig(spill_dir=7)
        assert ClusterConfig(spill_dir="/tmp/spills").spill_dir == "/tmp/spills"

    def test_every_field_has_a_validation_rule(self, monkeypatch):
        # The allowlist regression: a field added without a declared rule
        # must be refused loudly, not silently skipped.
        from repro.engine import cluster as cluster_module

        monkeypatch.delitem(cluster_module._CONFIG_FIELD_RULES, "data_scale")
        with pytest.raises(ValueError, match="no validation rule"):
            ClusterConfig()


class TestMetrics:
    def test_record_stage(self):
        metrics = ExecutionMetrics()
        metrics.record_stage(tasks=4, note="Scan t")
        assert metrics.stages == 1
        assert metrics.tasks == 4
        assert metrics.operator_log == ["Scan t"]

    def test_merge_folds_counters(self):
        a = ExecutionMetrics(bytes_scanned=10, shuffle_bytes=5, stages=1)
        b = ExecutionMetrics(bytes_scanned=1, broadcast_count=2, narrow_rows_processed=7)
        a.merge(b)
        assert a.bytes_scanned == 11
        assert a.shuffle_bytes == 5
        assert a.broadcast_count == 2
        assert a.narrow_rows_processed == 7


class TestCostModel:
    def test_zero_metrics_costs_nothing(self):
        cost = estimate_cost(ExecutionMetrics(), ClusterConfig())
        assert cost.total_sec == 0.0

    def test_shuffle_bytes_cross_network_twice(self):
        config = ClusterConfig(num_workers=1, network_bytes_per_sec=100.0)
        cost = estimate_cost(ExecutionMetrics(shuffle_bytes=100), config)
        assert cost.shuffle_sec == pytest.approx(2.0)

    def test_scan_parallelizes_over_workers(self):
        one = estimate_cost(
            ExecutionMetrics(bytes_scanned=1000), ClusterConfig(num_workers=1)
        )
        nine = estimate_cost(
            ExecutionMetrics(bytes_scanned=1000), ClusterConfig(num_workers=9)
        )
        assert one.scan_sec == pytest.approx(9 * nine.scan_sec)

    def test_stage_overhead_is_serial(self):
        config = ClusterConfig(task_overhead_sec=0.1)
        cost = estimate_cost(ExecutionMetrics(stages=5), config)
        assert cost.overhead_sec == pytest.approx(0.5)

    def test_data_scale_multiplies_data_costs_not_overhead(self):
        metrics = ExecutionMetrics(bytes_scanned=1000, stages=2)
        base = estimate_cost(metrics, ClusterConfig(data_scale=1.0))
        scaled = estimate_cost(metrics, ClusterConfig(data_scale=100.0))
        assert scaled.scan_sec == pytest.approx(100 * base.scan_sec)
        assert scaled.overhead_sec == base.overhead_sec

    def test_narrow_rows_cost_less_than_wide_rows(self):
        config = ClusterConfig()
        wide = estimate_cost(ExecutionMetrics(rows_processed=9000), config)
        narrow = estimate_cost(ExecutionMetrics(narrow_rows_processed=9000), config)
        assert narrow.cpu_sec < wide.cpu_sec


class TestSimulatedCluster:
    def test_finish_query_accumulates_session_metrics(self):
        cluster = SimulatedCluster()
        metrics = ExecutionMetrics(bytes_scanned=10)
        cluster.finish_query(metrics)
        cluster.finish_query(ExecutionMetrics(bytes_scanned=5))
        assert cluster.session_metrics.bytes_scanned == 15
