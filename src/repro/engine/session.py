"""Engine session: catalog + optimizer + executor + cost accounting.

The :class:`EngineSession` plays the role of a ``SparkSession``: it owns the
catalog and the simulated cluster, turns logical plans into results, and
returns a :class:`QueryReport` describing what the run cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..columnar.schema import TableSchema
from ..columnar.table_file import FileStatistics, write_table
from ..hdfs.filesystem import SimulatedHdfs
from ..rdf.dictionary import storage_cells
from .catalog import Catalog, StoredTable
from .cluster import ClusterConfig, CostBreakdown, ExecutionMetrics, SimulatedCluster
from .data import ColumnarData
from .executor import PhysicalExecutor
from .logical import LogicalPlan
from .optimizer import optimize


@dataclass(frozen=True)
class QueryReport:
    """Everything measured about one executed plan."""

    logical_plan: str
    optimized_plan: str
    metrics: ExecutionMetrics
    cost: CostBreakdown
    wall_clock_sec: float
    #: Root physical-operator span when the plan ran under a tracer.
    trace: object | None = None

    @property
    def simulated_sec(self) -> float:
        """Simulated cluster seconds (cost-model total)."""
        return self.cost.total_sec

    def explain(self) -> str:
        """The executed physical plan, annotated with traced actuals.

        Falls back to the optimizer's plan description when the run was not
        traced (``EXPLAIN`` vs ``EXPLAIN ANALYZE`` at the engine level).
        """
        if self.trace is None:
            return self.optimized_plan
        from ..obs.explain import render_span_tree

        return render_span_tree(self.trace)

    def summary(self) -> str:
        """One-line digest of the run's work counters."""
        m = self.metrics
        text = (
            f"rows={m.rows_output} stages={m.stages} "
            f"scan={m.bytes_scanned}B shuffle={m.shuffle_bytes}B "
            f"broadcasts={m.broadcast_count} colocated={m.colocated_joins} "
            f"simulated={self.simulated_sec * 1000:.1f}ms"
        )
        if m.recovered_faults:
            text += (
                f" [recovered: {m.task_retries} task retries, "
                f"{m.fetch_retries} fetch retries, "
                f"{m.recomputed_tasks} recomputed tasks, "
                f"{m.speculative_tasks} speculative, "
                f"{m.worker_losses} worker losses, "
                f"recovery={self.cost.recovery_sec * 1000:.1f}ms]"
            )
        if m.budget_trips or m.spills or m.degraded_joins:
            text += (
                f" [governed: {m.budget_trips} budget trips, "
                f"{m.spills} spilled joins ({m.spill_partitions} partitions, "
                f"{m.spill_bytes}B), {m.degraded_joins} degraded joins]"
            )
        return text


class EngineSession:
    """Owns a catalog, an HDFS namespace, and a simulated cluster."""

    def __init__(
        self,
        cluster: SimulatedCluster | None = None,
        hdfs: SimulatedHdfs | None = None,
    ):
        self.cluster = cluster or SimulatedCluster()
        config = self.cluster.config
        self.hdfs = hdfs or SimulatedHdfs(num_datanodes=config.num_workers)
        self.catalog = Catalog()
        self._executor = PhysicalExecutor(self.catalog, config)
        self.last_report: QueryReport | None = None

    @property
    def config(self) -> ClusterConfig:
        """The cluster configuration this session runs under."""
        return self.cluster.config

    # -- table management --------------------------------------------------------

    def register_rows(
        self,
        name: str,
        schema: TableSchema,
        rows: list[tuple],
        partition_columns: tuple[str, ...] | None = None,
        persist_path: str | None = None,
        allowed_encodings: tuple[str, ...] | None = None,
        compress_pages: bool = True,
        replace: bool = False,
    ) -> StoredTable:
        """Register rows as a catalog table, optionally persisted to HDFS.

        Args:
            partition_columns: hash-partition the rows on these columns (the
                Property Table uses the subject column, paper §3.1); ``None``
                spreads rows evenly without a keyed partitioner.
            persist_path: when given, the rows are also written as a columnar
                file at this HDFS path; the resulting file statistics drive
                scan-cost accounting and storage-size measurements.
            allowed_encodings: restrict the columnar encoder (ablations).
        """
        data = ColumnarData.from_rows(
            schema, rows, self.config.default_partitions, partition_columns
        )
        file_stats: FileStatistics | None = None
        if persist_path is not None:
            kwargs = {"compress_pages": compress_pages}
            if allowed_encodings is not None:
                kwargs["allowed_encodings"] = allowed_encodings
            # Persisted files are the lexical system of record: dictionary
            # term IDs decode back to their N-Triples text at this boundary,
            # so storage footprints match string-cell execution exactly.
            file_stats = write_table(
                self.hdfs,
                persist_path,
                schema,
                rows,
                overwrite=replace,
                stored_cells=storage_cells,
                **kwargs,
            )
        table = StoredTable(
            name=name, data=data, file_stats=file_stats, hdfs_path=persist_path
        )
        self.catalog.register(table, replace=replace)
        return table

    def table(self, name: str) -> "DataFrame":
        """A DataFrame scanning a registered table."""
        from .dataframe import DataFrame
        from .logical import TableScan

        stored = self.catalog.get(name)
        partitioner = stored.data.partitioner
        return DataFrame(
            self,
            TableScan(
                name,
                stored.schema,
                partition_columns=partitioner.columns if partitioner else None,
            ),
        )

    def create_dataframe(self, schema: TableSchema, rows: list[tuple], label: str = "local") -> "DataFrame":
        """A DataFrame over caller-provided rows (not registered)."""
        from .dataframe import DataFrame
        from .logical import InMemoryRelation

        return DataFrame(self, InMemoryRelation(schema, tuple(rows), label))

    # -- execution ------------------------------------------------------------------

    def execute(
        self, plan: LogicalPlan, run_optimizer: bool = True, tracer=None
    ) -> tuple[ColumnarData, QueryReport]:
        """Optimize (unless disabled), run, and cost a logical plan.

        With a tracer attached, the optimizer pass gets its own span, every
        physical operator records one, and the report carries the root
        operator span (``QueryReport.trace``) for EXPLAIN ANALYZE alignment.
        """
        if tracer is None:
            optimized = optimize(plan) if run_optimizer else plan
            trace_container = None
            spans_before = 0
        else:
            with tracer.span("optimize", enabled=run_optimizer):
                optimized = optimize(plan) if run_optimizer else plan
            parent = tracer.current
            trace_container = parent.children if parent is not None else tracer.roots
            spans_before = len(trace_container)
        metrics = self.cluster.new_query_metrics()
        started = time.perf_counter()
        try:
            result = self._executor.execute(optimized, metrics, tracer)
        finally:
            # Spill files must never outlive the query, whether it finished,
            # timed out, or died to an injected fault.
            governor = metrics.governor
            if governor is not None:
                governor.cleanup()
        wall = time.perf_counter() - started
        cost = self.cluster.finish_query(metrics)
        trace_root = None
        if trace_container is not None and len(trace_container) > spans_before:
            trace_root = trace_container[spans_before]
        report = QueryReport(
            logical_plan=plan.describe(),
            optimized_plan=optimized.describe(),
            metrics=metrics,
            cost=cost,
            wall_clock_sec=wall,
            trace=trace_root,
        )
        self.last_report = report
        return result, report
