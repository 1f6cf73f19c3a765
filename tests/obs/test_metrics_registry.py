"""The metrics contract: completeness, snapshots, and docs sync.

The registry is the single source of truth for counter names. These tests
pin the contract from three directions: every numeric runtime field must be
registered (no undocumented counters), every snapshot key must resolve in
the registry (no phantom documentation), and ``docs/METRICS.md`` must be
byte-identical to ``REGISTRY.markdown()`` (no drift between code and docs).
"""

import dataclasses
import pathlib
import subprocess
import sys

from repro.engine.cluster import ClusterConfig, CostBreakdown, ExecutionMetrics
from repro.obs import (
    REGISTRY,
    snapshot_cost,
    snapshot_execution_metrics,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestCompleteness:
    def test_every_numeric_execution_metrics_field_is_registered(self):
        metrics = ExecutionMetrics()
        for spec_field in dataclasses.fields(ExecutionMetrics):
            value = getattr(metrics, spec_field.name)
            if not isinstance(value, (int, float)):
                continue  # fault_events / fault_injector / governor
            assert (
                f"engine.{spec_field.name}" in REGISTRY
                or f"faults.{spec_field.name}" in REGISTRY
                or f"governor.{spec_field.name}" in REGISTRY
            ), f"ExecutionMetrics.{spec_field.name} has no registered counter"

    def test_every_cost_breakdown_field_is_registered(self):
        for spec_field in dataclasses.fields(CostBreakdown):
            assert f"cost.{spec_field.name}" in REGISTRY

    def test_registry_layers(self):
        assert set(REGISTRY.layers()) == {
            "cost", "engine", "faults", "governor", "serve",
        }

    def test_every_server_stats_field_is_registered(self):
        from repro.obs.metrics import _SERVE_FIELDS
        from repro.serve import ServerStats

        declared = {f.name for f in dataclasses.fields(ServerStats)}
        assert declared == set(_SERVE_FIELDS), (
            "ServerStats fields and the serve metrics layer drifted apart"
        )
        for name in _SERVE_FIELDS:
            assert f"serve.{name}" in REGISTRY

    def test_specs_are_documented(self):
        for spec in REGISTRY:
            assert spec.description.strip(), f"{spec.name} lacks a description"
            assert spec.unit, f"{spec.name} lacks a unit"


class TestSnapshots:
    def test_execution_snapshot_keys_resolve_in_registry(self):
        snapshot = snapshot_execution_metrics(ExecutionMetrics())
        for name in snapshot:
            assert name in REGISTRY, f"snapshot emits unregistered {name}"

    def test_execution_snapshot_reflects_counter_values(self):
        metrics = ExecutionMetrics(bytes_scanned=10, task_retries=2, spills=3)
        snapshot = snapshot_execution_metrics(metrics)
        assert snapshot["engine.bytes_scanned"] == 10
        assert snapshot["faults.task_retries"] == 2
        assert snapshot["governor.spills"] == 3

    def test_cost_snapshot_keys_resolve_in_registry(self):
        cost = CostBreakdown(
            scan_sec=1.0,
            cpu_sec=2.0,
            shuffle_sec=3.0,
            broadcast_sec=4.0,
            overhead_sec=5.0,
            recovery_sec=6.0,
        )
        snapshot = snapshot_cost(cost)
        assert set(snapshot) <= {spec.name for spec in REGISTRY}
        assert snapshot["cost.recovery_sec"] == 6.0

    def test_config_is_importable(self):
        # Counter semantics reference the cluster config (data_scale etc.);
        # keep the public surface stable.
        assert ClusterConfig().num_workers > 0


class TestDocsSync:
    def test_metrics_md_matches_registry_byte_for_byte(self):
        path = REPO_ROOT / "docs" / "METRICS.md"
        assert path.exists(), "docs/METRICS.md missing; regenerate with " \
            "`prost-repro metrics --markdown > docs/METRICS.md`"
        assert path.read_text(encoding="utf-8") == REGISTRY.markdown(), (
            "docs/METRICS.md drifted from the registry; regenerate with "
            "`prost-repro metrics --markdown > docs/METRICS.md`"
        )

    def test_cli_markdown_output_is_byte_identical(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "metrics", "--markdown"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == REGISTRY.markdown()
