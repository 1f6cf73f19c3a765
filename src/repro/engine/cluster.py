"""Simulated cluster and cost model.

The paper's evaluation ran on 10 machines (1 master + 9 Spark workers) with
Gigabit Ethernet, 6-core Xeons, and 21 GB executors. The decisive property of
that hardware for the *relative* results is that **network shuffle dominates**:
joins "need large portions of the data to be shuffled across the network"
(paper §3.3). This module reproduces that regime with a deterministic cost
model: every executed physical operator records work (bytes scanned, rows
processed, bytes shuffled/broadcast, tasks launched) into
:class:`ExecutionMetrics`, and :class:`ClusterConfig` converts the totals
into a simulated wall-clock time.

The defaults are calibrated to the paper's cluster:

- 9 workers, 125 MB/s network per node (Gigabit), 150 MB/s effective disk
  scan rate per node, 5M rows/s per-core processing, 50 ms per stage of task
  scheduling overhead (Spark's well-known constant).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from ..errors import ValidationError


def _validate_config_field(name: str, rule: str, value) -> None:
    """Apply one declarative validation rule to one config field."""
    real = (int, float)
    if rule == "positive_int":
        if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
            raise ValidationError(f"{name} must be positive (an integer)")
    elif rule == "positive":
        if isinstance(value, bool) or not isinstance(value, real) or value <= 0:
            raise ValidationError(f"{name} must be positive")
    elif rule == "non_negative":
        if isinstance(value, bool) or not isinstance(value, real) or value < 0:
            raise ValidationError(f"{name} must be non-negative")
    elif rule == "optional_positive_int":
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int) or value <= 0
        ):
            raise ValidationError(f"{name} must be positive (an integer) or None")
    elif rule == "optional_positive":
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, real) or value <= 0
        ):
            raise ValidationError(f"{name} must be positive or None")
    elif rule == "optional_int":
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValidationError(f"{name} must be an integer or None")
    elif rule == "optional_str":
        if value is not None and (not isinstance(value, str) or not value):
            raise ValidationError(f"{name} must be a non-empty string or None")
    elif rule == "min_attempts":
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(f"{name} must be at least 1")
    elif rule == "speculation":
        if isinstance(value, bool) or not isinstance(value, real) or value <= 1.0:
            raise ValidationError(f"{name} must exceed 1.0")
    else:  # pragma: no cover - guarded by the completeness check below
        raise ValidationError(f"unknown validation rule {rule!r} for {name}")


#: Declarative validation rules, one per :class:`ClusterConfig` field.
#: ``__post_init__`` iterates the dataclass fields and *refuses* any field
#: without a rule here, so a newly added knob can never silently skip
#: validation (the failure mode of the old inline allowlist).
_CONFIG_FIELD_RULES: dict[str, str] = {
    "num_workers": "positive_int",
    "partitions_per_worker": "positive_int",
    "network_bytes_per_sec": "positive",
    "scan_bytes_per_sec": "positive",
    "rows_per_sec": "positive",
    "task_overhead_sec": "non_negative",
    "broadcast_threshold_bytes": "non_negative",
    "data_scale": "positive",
    "max_task_attempts": "min_attempts",
    "speculation_multiplier": "speculation",
    "fault_seed": "optional_int",
    "memory_budget_bytes": "optional_positive_int",
    "query_timeout_sec": "optional_positive",
    "max_concurrent_queries": "positive_int",
    "spill_dir": "optional_str",
}


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    Attributes:
        num_workers: Spark-style worker count (the paper uses 9).
        partitions_per_worker: default shuffle partitions per worker.
        network_bytes_per_sec: per-node network bandwidth (Gigabit ≈ 125 MB/s).
        scan_bytes_per_sec: per-node storage scan bandwidth.
        rows_per_sec: per-node row-processing rate for narrow operators.
        task_overhead_sec: scheduling overhead charged per launched task wave.
        broadcast_threshold_bytes: max estimated size for a broadcast join
            (Spark's ``autoBroadcastJoinThreshold`` default is 10 MB). The
            threshold applies at *emulated* scale: it is divided by
            ``data_scale`` before comparing against in-memory sizes. ``0``
            switches size-based broadcast selection off: every unhinted,
            non-colocated hash join of non-empty inputs shuffles (the
            broadcast ablation); negative values are rejected.
        data_scale: emulation factor for running a scaled-down dataset "as
            if" it were the paper's full-size one. Every byte/row counter is
            multiplied by this factor when costing (stage overheads are not:
            Spark's scheduling constant does not grow with data). Benchmarks
            set ``data_scale = 100e6 / len(graph)`` to emulate WatDiv100M.
        max_task_attempts: a task that fails this many times aborts the
            query (Spark's ``spark.task.maxFailures``, default 4).
        speculation_multiplier: a task running at least this many times
            slower than its siblings gets a speculative duplicate
            (``spark.speculation.multiplier``, default 1.5).
        fault_seed: when set, every query runs under a seeded chaos
            :class:`~repro.engine.faults.FaultPlan` drawn from this seed.
        memory_budget_bytes: per-query memory budget charged at every
            memory-hungry operator site; tripping it triggers graceful
            degradation (broadcast→shuffle, grace-hash spill) instead of
            failure. ``None`` (with ``REPRO_MEM_BUDGET`` unset) disables
            memory governance entirely.
        query_timeout_sec: cooperative per-query deadline, polled at stage
            boundaries and in the fault injector's retry loop. ``None``
            (with ``REPRO_QUERY_TIMEOUT`` unset) disables deadlines.
        max_concurrent_queries: admission-control slots; queries beyond
            this queue (bounded) or are shed.
        spill_dir: directory grace-hash spill files go under (the system
            temp directory when ``None``); per-query subdirectories are
            always removed when the query finishes, however it finishes.
    """

    num_workers: int = 9
    partitions_per_worker: int = 2
    network_bytes_per_sec: float = 125e6
    scan_bytes_per_sec: float = 150e6
    rows_per_sec: float = 5e6
    task_overhead_sec: float = 0.05
    broadcast_threshold_bytes: int = 10 * 1024 * 1024
    data_scale: float = 1.0
    max_task_attempts: int = 4
    speculation_multiplier: float = 1.5
    fault_seed: int | None = None
    memory_budget_bytes: int | None = None
    query_timeout_sec: float | None = None
    max_concurrent_queries: int = 8
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        for spec in fields(self):
            rule = _CONFIG_FIELD_RULES.get(spec.name)
            if rule is None:
                raise ValidationError(
                    f"no validation rule declared for ClusterConfig.{spec.name}; "
                    "add one to _CONFIG_FIELD_RULES"
                )
            _validate_config_field(spec.name, rule, getattr(self, spec.name))

    @property
    def default_partitions(self) -> int:
        """Partition count for shuffles and loaded tables."""
        return self.num_workers * self.partitions_per_worker


#: How many chained narrow operators whole-stage codegen typically fuses
#: into one pass over the rows.
NARROW_FUSION_FACTOR = 3.0


@dataclass
class ExecutionMetrics:
    """Work counters accumulated while executing one physical plan.

    All counters are cluster-wide totals; the cost model divides the
    parallelizable ones by the worker count.

    The main work counters describe the *fault-free* data plane and are
    byte-identical whether or not faults are injected. Recovery work —
    retried tasks, lineage-recomputed shuffle partitions, speculative
    duplicates, backoff waits — lives in the dedicated ``recovery_*`` /
    retry counters, charged by the attached
    :class:`~repro.engine.faults.FaultInjector` when one is present.
    """

    bytes_scanned: int = 0
    rows_scanned: int = 0
    rows_processed: int = 0
    narrow_rows_processed: int = 0
    shuffle_bytes: int = 0
    shuffle_rows: int = 0
    broadcast_bytes: int = 0
    broadcast_count: int = 0
    colocated_joins: int = 0
    stages: int = 0
    tasks: int = 0
    rows_output: int = 0
    vector_batches: int = 0
    rows_late_materialized: int = 0
    operator_log: list[str] = field(default_factory=list)
    # -- fault tolerance -------------------------------------------------------
    task_retries: int = 0
    fetch_retries: int = 0
    speculative_tasks: int = 0
    recomputed_tasks: int = 0
    worker_losses: int = 0
    retry_waves: int = 0
    retry_backoff_sec: float = 0.0
    straggler_extra_sec: float = 0.0
    recovery_bytes_scanned: int = 0
    recovery_rows_processed: int = 0
    recovery_shuffle_bytes: int = 0
    fault_events: list[str] = field(default_factory=list)
    fault_injector: object | None = field(default=None, repr=False, compare=False)
    # -- resource governance ---------------------------------------------------
    spills: int = 0
    spill_bytes: int = 0
    spill_partitions: int = 0
    degraded_joins: int = 0
    budget_trips: int = 0
    memory_pressure_events: int = 0
    peak_memory_bytes: int = 0
    governor: object | None = field(default=None, repr=False, compare=False)

    def record_stage(self, tasks: int, note: str = "") -> None:
        """Register one stage (a wave of parallel tasks).

        Stage boundaries are also the governor's cooperative poll points:
        an expired deadline or a requested cancellation raises here,
        *before* fault injection, with this metrics object attached so
        EXPLAIN ANALYZE can render the partial work.
        """
        self.stages += 1
        self.tasks += tasks
        if note:
            self.operator_log.append(note)
        if self.governor is not None:
            self.governor.on_stage(self)
        if self.fault_injector is not None:
            self.fault_injector.on_stage(self, tasks, note)

    @property
    def recovered_faults(self) -> int:
        """Total fault events the query survived."""
        return (
            self.task_retries
            + self.fetch_retries
            + self.speculative_tasks
            + self.worker_losses
        )

    def merge(self, other: "ExecutionMetrics") -> None:
        """Fold another metrics object into this one (for multi-plan runs)."""
        self.bytes_scanned += other.bytes_scanned
        self.rows_scanned += other.rows_scanned
        self.rows_processed += other.rows_processed
        self.narrow_rows_processed += other.narrow_rows_processed
        self.shuffle_bytes += other.shuffle_bytes
        self.shuffle_rows += other.shuffle_rows
        self.broadcast_bytes += other.broadcast_bytes
        self.broadcast_count += other.broadcast_count
        self.colocated_joins += other.colocated_joins
        self.stages += other.stages
        self.tasks += other.tasks
        self.rows_output += other.rows_output
        self.vector_batches += other.vector_batches
        self.rows_late_materialized += other.rows_late_materialized
        self.operator_log.extend(other.operator_log)
        self.task_retries += other.task_retries
        self.fetch_retries += other.fetch_retries
        self.speculative_tasks += other.speculative_tasks
        self.recomputed_tasks += other.recomputed_tasks
        self.worker_losses += other.worker_losses
        self.retry_waves += other.retry_waves
        self.retry_backoff_sec += other.retry_backoff_sec
        self.straggler_extra_sec += other.straggler_extra_sec
        self.recovery_bytes_scanned += other.recovery_bytes_scanned
        self.recovery_rows_processed += other.recovery_rows_processed
        self.recovery_shuffle_bytes += other.recovery_shuffle_bytes
        self.fault_events.extend(other.fault_events)
        self.spills += other.spills
        self.spill_bytes += other.spill_bytes
        self.spill_partitions += other.spill_partitions
        self.degraded_joins += other.degraded_joins
        self.budget_trips += other.budget_trips
        self.memory_pressure_events += other.memory_pressure_events
        # High-water mark, not a total: the largest single charge seen.
        self.peak_memory_bytes = max(self.peak_memory_bytes, other.peak_memory_bytes)


@dataclass(frozen=True)
class CostBreakdown:
    """Simulated time split by resource, in seconds."""

    scan_sec: float
    cpu_sec: float
    shuffle_sec: float
    broadcast_sec: float
    overhead_sec: float
    recovery_sec: float = 0.0
    spill_sec: float = 0.0

    @property
    def total_sec(self) -> float:
        """Simulated end-to-end seconds (sum of all components)."""
        return (
            self.scan_sec
            + self.cpu_sec
            + self.shuffle_sec
            + self.broadcast_sec
            + self.overhead_sec
            + self.recovery_sec
            + self.spill_sec
        )


def estimate_cost(metrics: ExecutionMetrics, config: ClusterConfig) -> CostBreakdown:
    """Convert work counters into simulated seconds under the cluster config.

    Scan, CPU, and shuffle work parallelize across workers; broadcast pays the
    full replication cost (the driver pushes ``size × workers`` bytes, but the
    pushes themselves overlap, so we charge size/bandwidth plus a per-
    broadcast latency); stage overhead is serial.
    """
    workers = config.num_workers
    scale = config.data_scale
    scan_sec = scale * metrics.bytes_scanned / (config.scan_bytes_per_sec * workers)
    # Narrow operators (filter/project/explode) fuse into single passes
    # under whole-stage codegen; charge them at a fused rate.
    cpu_sec = scale * (
        metrics.rows_processed
        + metrics.narrow_rows_processed / NARROW_FUSION_FACTOR
    ) / (config.rows_per_sec * workers)
    # A shuffled byte crosses the network twice (map-side write, reduce-side
    # read); aggregate bandwidth is per-node bandwidth × workers.
    shuffle_sec = (
        scale * 2 * metrics.shuffle_bytes / (config.network_bytes_per_sec * workers)
    )
    broadcast_sec = (
        scale * metrics.broadcast_bytes / config.network_bytes_per_sec
        + 0.01 * metrics.broadcast_count
    )
    overhead_sec = metrics.stages * config.task_overhead_sec
    # Recovery work re-runs at the same rates as first-run work (recovered
    # rows are charged unfused — re-execution restarts the pipeline), plus
    # the serial waits: retry backoff, straggler drag, and one scheduling
    # overhead per extra task wave.
    recovery_sec = (
        scale * metrics.recovery_bytes_scanned / (config.scan_bytes_per_sec * workers)
        + scale * metrics.recovery_rows_processed / (config.rows_per_sec * workers)
        + scale
        * 2
        * metrics.recovery_shuffle_bytes
        / (config.network_bytes_per_sec * workers)
        + metrics.retry_backoff_sec
        + metrics.straggler_extra_sec
        + metrics.retry_waves * config.task_overhead_sec
    )
    # Grace-hash spills write every spilled byte to local disk and read it
    # back once, charged at the storage scan rate (spills are local I/O,
    # not network traffic).
    spill_sec = scale * 2 * metrics.spill_bytes / (config.scan_bytes_per_sec * workers)
    return CostBreakdown(
        scan_sec=scan_sec,
        cpu_sec=cpu_sec,
        shuffle_sec=shuffle_sec,
        broadcast_sec=broadcast_sec,
        overhead_sec=overhead_sec,
        recovery_sec=recovery_sec,
        spill_sec=spill_sec,
    )


class SimulatedCluster:
    """Execution context: a config plus cumulative session-level metrics.

    Args:
        config: cluster description; ``config.fault_seed`` implies a seeded
            chaos fault plan when ``fault_plan`` is not given explicitly.
        fault_plan: inject this :class:`~repro.engine.faults.FaultPlan` into
            every query executed on the cluster (a fresh
            :class:`~repro.engine.faults.FaultInjector` per query: lost
            workers are replaced between queries, as Spark replaces dead
            executors).
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        fault_plan: "object | None" = None,
    ):
        self.config = config or ClusterConfig()
        if fault_plan is None and self.config.fault_seed is not None:
            from .faults import FaultPlan

            fault_plan = FaultPlan.from_rates(self.config.fault_seed)
        self.fault_plan = fault_plan
        self.session_metrics = ExecutionMetrics()

    def new_query_metrics(self) -> ExecutionMetrics:
        """A fresh metrics object for one query execution.

        Attaches the fault injector (when a fault plan is in force) and
        the governor context (when a memory budget or deadline is in
        force — via config fields or the ``REPRO_MEM_BUDGET`` /
        ``REPRO_QUERY_TIMEOUT`` environment fallbacks). With neither, the
        metrics carry no extra state and execution pays no overhead.
        """
        metrics = ExecutionMetrics()
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            from .faults import FaultInjector

            metrics.fault_injector = FaultInjector(self.fault_plan, self.config)
        from ..governor import governor_context_for

        metrics.governor = governor_context_for(self.config)
        return metrics

    def finish_query(self, metrics: ExecutionMetrics) -> CostBreakdown:
        """Fold query metrics into the session totals and cost them."""
        self.session_metrics.merge(metrics)
        return estimate_cost(metrics, self.config)

    def __repr__(self) -> str:
        return f"SimulatedCluster({self.config.num_workers} workers)"
