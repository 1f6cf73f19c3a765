"""Seeded fault injection and recovery accounting for the simulated cluster.

Spark's defining production property is lineage-based recovery: a failed
task is retried on another executor, a dead executor's lost shuffle outputs
are recomputed from the stages that produced them, and stragglers are raced
by speculative duplicates. This module gives the simulated cluster the same
failure model, deterministically:

- a :class:`FaultPlan` is a pure function of a seed: for every
  ``(stage, task)`` coordinate it decides whether the task fails (and how
  often), whether its shuffle fetch fails, whether it straggles, and whether
  the stage's start coincides with a whole-worker loss;
- a :class:`FaultInjector` consults the plan at every stage the physical
  executor records and charges the *recovery* work — retried task work,
  lineage-recomputed shuffle partitions, speculative duplicates, retry
  backoff — to dedicated :class:`~repro.engine.cluster.ExecutionMetrics`
  counters that :func:`~repro.engine.cluster.estimate_cost` converts into a
  ``recovery_sec`` cost component.

The injector never touches the data plane: partitions, rows, and the main
work counters are byte-identical to a fault-free run. Recovery is an
accounting overlay, which is exactly the correctness bar — any fault plan
that does not exhaust the retry budget must leave query results unchanged —
and the differential chaos harness (``prost-repro fuzz --chaos``) holds
every engine to it. A plan *can* exhaust the budget: a task with at least
``max_task_attempts`` injected failures aborts the query with
:class:`~repro.errors.FaultToleranceExhaustedError`, as Spark aborts a job
after ``spark.task.maxFailures``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import FaultToleranceExhaustedError, TaskFailedError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cluster import ClusterConfig, ExecutionMetrics

#: First retry waits this long (simulated seconds); doubles per attempt.
RETRY_BACKOFF_BASE_SEC = 0.1
#: Backoff never exceeds this, matching capped exponential backoff.
RETRY_BACKOFF_CAP_SEC = 5.0


def retry_backoff_sec(failed_attempts: int) -> float:
    """Total simulated backoff for ``failed_attempts`` consecutive failures."""
    return sum(
        min(RETRY_BACKOFF_CAP_SEC, RETRY_BACKOFF_BASE_SEC * (2**attempt))
        for attempt in range(failed_attempts)
    )


@dataclass(frozen=True)
class TaskFault:
    """An injected failure of one task: ``failures`` attempts fail in a row.

    ``kind`` is ``"task"`` (the task itself crashes and is retried in place)
    or ``"fetch"`` (the task cannot fetch a shuffle partition; the lost map
    output is recomputed from its producing stage, then the task retries).
    """

    stage: int
    task: int
    failures: int
    kind: str = "task"


@dataclass(frozen=True)
class WorkerLoss:
    """A whole worker dies as ``stage`` completes.

    Every shuffle output the worker held (its share of every
    shuffle-producing stage so far, this one included) is lost and must be
    recomputed via lineage.
    """

    stage: int
    worker: int


@dataclass(frozen=True)
class StragglerSpec:
    """One task runs ``slowdown`` times slower than its siblings."""

    stage: int
    task: int
    slowdown: float


@dataclass(frozen=True)
class MemoryPressure:
    """Executor memory pressure hits as ``stage`` completes.

    The query's effective memory budget shrinks by ``fraction`` of its
    configured size (another tenant's allocation landed on the executor),
    which can push later joins over the degradation ladder mid-query. On
    an unbudgeted query the pressure is a no-op — there is no budget to
    shrink — so plans carrying it stay byte-identical for ungoverned runs.
    """

    stage: int
    fraction: float = 0.5


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Two sources compose: explicit fault lists (unit tests pin exact
    scenarios) and seeded rates (chaos testing draws a fresh, reproducible
    plan per seed). Rate draws are keyed by ``(seed, stage, task)`` alone,
    so decisions are independent of consultation order.

    Attributes:
        seed: base seed for rate draws; ``None`` disables rate-based faults.
        task_failure_rate: per-task probability of a crash-and-retry fault.
        fetch_failure_rate: per-task probability of a shuffle-fetch fault.
        straggler_rate: per-task probability of a slowdown.
        worker_loss_rate: per-stage probability that a worker dies.
        memory_pressure_rate: per-stage probability that executor memory
            pressure shrinks the query's effective memory budget (drawn
            with a fresh salt, so enabling it leaves every other category's
            draws byte-identical).
        max_failures: cap on consecutive injected failures per task. Keep it
            below ``ClusterConfig.max_task_attempts`` for recoverable plans;
            at or above it the query aborts.
        slowdown_range: (lo, hi) uniform range for straggler slowdowns.
    """

    seed: int | None = None
    task_failure_rate: float = 0.0
    fetch_failure_rate: float = 0.0
    straggler_rate: float = 0.0
    worker_loss_rate: float = 0.0
    memory_pressure_rate: float = 0.0
    max_failures: int = 2
    slowdown_range: tuple[float, float] = (2.0, 8.0)
    task_faults: tuple[TaskFault, ...] = ()
    worker_losses: tuple[WorkerLoss, ...] = ()
    stragglers: tuple[StragglerSpec, ...] = ()
    memory_pressures: tuple[MemoryPressure, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "task_failure_rate",
            "fetch_failure_rate",
            "straggler_rate",
            "worker_loss_rate",
            "memory_pressure_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{name} must be within [0, 1]")
        if self.max_failures < 1:
            raise ValidationError("max_failures must be at least 1")
        lo, hi = self.slowdown_range
        if not 1.0 <= lo <= hi:
            raise ValidationError("slowdown_range must satisfy 1.0 <= lo <= hi")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: nothing ever fails."""
        return cls()

    @classmethod
    def from_rates(
        cls,
        seed: int,
        task_failure_rate: float = 0.06,
        fetch_failure_rate: float = 0.03,
        straggler_rate: float = 0.05,
        worker_loss_rate: float = 0.04,
        memory_pressure_rate: float = 0.05,
        max_failures: int = 2,
    ) -> "FaultPlan":
        """A chaos plan: every fault category active at a moderate rate.

        The default ``max_failures`` stays below the default
        ``max_task_attempts`` (4), so rate-drawn plans are always
        recoverable. Memory pressure only bites when the query carries a
        memory budget; for unbudgeted queries the plan behaves exactly as
        it did without the category.
        """
        return cls(
            seed=seed,
            task_failure_rate=task_failure_rate,
            fetch_failure_rate=fetch_failure_rate,
            straggler_rate=straggler_rate,
            worker_loss_rate=worker_loss_rate,
            memory_pressure_rate=memory_pressure_rate,
            max_failures=max_failures,
        )

    # -- queries ---------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """Whether the plan can never inject anything."""
        has_rates = self.seed is not None and (
            self.task_failure_rate > 0
            or self.fetch_failure_rate > 0
            or self.straggler_rate > 0
            or self.worker_loss_rate > 0
            or self.memory_pressure_rate > 0
        )
        return not has_rates and not (
            self.task_faults
            or self.worker_losses
            or self.stragglers
            or self.memory_pressures
        )

    def _rng(self, stage: int, task: int, salt: str) -> random.Random:
        # String seeding hashes with SHA-512 under the hood: stable across
        # processes and machines, unlike builtin ``hash``.
        return random.Random(f"{self.seed}:{stage}:{task}:{salt}")

    def task_fault(self, stage: int, task: int) -> TaskFault | None:
        """The fault injected into this task, if any (explicit wins)."""
        for fault in self.task_faults:
            if fault.stage == stage and fault.task == task:
                return fault
        if self.seed is None:
            return None
        rng = self._rng(stage, task, "fail")
        draw = rng.random()
        if draw < self.task_failure_rate:
            kind = "task"
        elif draw < self.task_failure_rate + self.fetch_failure_rate:
            kind = "fetch"
        else:
            return None
        failures = rng.randint(1, self.max_failures)
        return TaskFault(stage=stage, task=task, failures=failures, kind=kind)

    def straggler_slowdown(self, stage: int, task: int) -> float | None:
        """This task's slowdown factor, or ``None`` when it runs normally."""
        for spec in self.stragglers:
            if spec.stage == stage and spec.task == task:
                return spec.slowdown
        if self.seed is None or self.straggler_rate <= 0:
            return None
        rng = self._rng(stage, task, "straggle")
        if rng.random() >= self.straggler_rate:
            return None
        return rng.uniform(*self.slowdown_range)

    def worker_lost_at(self, stage: int, num_workers: int) -> int | None:
        """The worker that dies at the start of this stage, if any."""
        for loss in self.worker_losses:
            if loss.stage == stage:
                return loss.worker % num_workers
        if self.seed is None or self.worker_loss_rate <= 0:
            return None
        rng = self._rng(stage, 0, "worker-loss")
        if rng.random() >= self.worker_loss_rate:
            return None
        return rng.randrange(num_workers)

    def memory_pressure_at(self, stage: int) -> float | None:
        """The budget shrink fraction hitting at this stage, if any.

        Drawn with a fresh ``"mem-pressure"`` salt, so plans that predate
        the category keep every other draw byte-identical.
        """
        for pressure in self.memory_pressures:
            if pressure.stage == stage:
                return pressure.fraction
        if self.seed is None or self.memory_pressure_rate <= 0:
            return None
        rng = self._rng(stage, 0, "mem-pressure")
        if rng.random() >= self.memory_pressure_rate:
            return None
        return rng.uniform(0.25, 0.75)


@dataclass
class _StageWork:
    """Work one recorded stage charged (the lineage record for recompute)."""

    tasks: int
    note: str
    bytes_scanned: int = 0
    rows_processed: int = 0
    narrow_rows_processed: int = 0
    shuffle_bytes: int = 0
    broadcast_bytes: int = 0


class FaultInjector:
    """Per-query fault state: consulted by ``ExecutionMetrics.record_stage``.

    The physical executor charges each stage's work *before* recording the
    stage, so the counter delta since the previous record is exactly the
    stage's own work — the injector snapshots the delta as the stage's
    lineage record, then plays the plan's faults against it:

    - **task failure** — the task's share of the stage work is re-charged
      once per failed attempt, plus capped exponential backoff (simulated
      time) per retry;
    - **shuffle-fetch failure** — the lost map output is recomputed from the
      nearest upstream shuffle-producing stage (its per-task work is
      re-charged), then the fetch retries with backoff;
    - **worker loss** — ``1/num_workers`` of every shuffle-producing stage's
      output so far dies with the worker; each such stage re-runs that
      fraction of its tasks (lineage recompute);
    - **straggler** — a slowdown below ``speculation_multiplier`` just
      stretches the stage by the extra task time; at or above it a
      speculative duplicate launches, so the extra cost is one task's work
      plus the detection delay instead of the full slowdown.

    Failures beyond ``max_task_attempts`` raise
    :class:`FaultToleranceExhaustedError` and abort the query.
    """

    def __init__(self, plan: FaultPlan, config: "ClusterConfig"):
        self.plan = plan
        self.config = config
        self._next_stage = 0
        self._lost_workers: set[int] = set()
        self._stage_records: list[_StageWork] = []
        self._snapshot = (0, 0, 0, 0, 0)

    # -- the record_stage hook -------------------------------------------------

    def on_stage(self, metrics: "ExecutionMetrics", tasks: int, note: str) -> None:
        """Inject this stage's faults and charge their recovery."""
        stage = self._next_stage
        self._next_stage += 1
        work = self._take_stage_work(metrics, tasks, note)
        self._stage_records.append(work)

        worker = self.plan.worker_lost_at(stage, self.config.num_workers)
        if worker is not None and worker not in self._lost_workers:
            self._lost_workers.add(worker)
            metrics.worker_losses += 1
            metrics.fault_events.append(f"stage {stage}: worker {worker} lost")
            self._recompute_lineage(metrics, stage)

        fraction = self.plan.memory_pressure_at(stage)
        if fraction is not None and metrics.governor is not None:
            effective = metrics.governor.apply_memory_pressure(metrics, fraction)
            if effective is not None:
                metrics.fault_events.append(
                    f"stage {stage}: memory pressure, effective budget now "
                    f"{effective} bytes"
                )

        for task in range(tasks):
            fault = self.plan.task_fault(stage, task)
            if fault is not None and fault.failures > 0:
                self._apply_task_fault(metrics, stage, task, fault, work)
            slowdown = self.plan.straggler_slowdown(stage, task)
            if slowdown is not None and slowdown > 1.0:
                self._apply_straggler(metrics, stage, task, slowdown, work)

    # -- fault handlers --------------------------------------------------------

    def _apply_task_fault(
        self,
        metrics: "ExecutionMetrics",
        stage: int,
        task: int,
        fault: TaskFault,
        work: _StageWork,
    ) -> None:
        if fault.failures >= self.config.max_task_attempts:
            last_attempt = TaskFailedError(
                f"task {task} of stage {stage} failed attempt {fault.failures}",
                stage=stage,
                task=task,
                attempt=fault.failures,
                kind=fault.kind,
            )
            raise FaultToleranceExhaustedError(
                f"task {task} of stage {stage} ({work.note or 'unnamed'}) failed "
                f"{fault.failures} attempts; max_task_attempts="
                f"{self.config.max_task_attempts}"
            ) from last_attempt
        per_task = 1.0 / max(1, work.tasks)
        if fault.kind == "fetch":
            metrics.fetch_retries += fault.failures
            # The missing map output is regenerated from the stage that
            # produced it: re-run one of its tasks per failed fetch.
            parent = self._latest_shuffle_producer(exclude_from=len(self._stage_records) - 1)
            if parent is not None:
                metrics.recomputed_tasks += fault.failures
                self._charge_recovery(
                    metrics, parent, fault.failures / max(1, parent.tasks)
                )
            else:
                self._charge_recovery(metrics, work, fault.failures * per_task)
        else:
            metrics.task_retries += fault.failures
            self._charge_recovery(metrics, work, fault.failures * per_task)
        backoff = retry_backoff_sec(fault.failures)
        metrics.retry_backoff_sec += backoff
        metrics.retry_waves += fault.failures
        metrics.fault_events.append(
            f"stage {stage} task {task}: {fault.failures} "
            f"{fault.kind}-failure(s), retried"
        )
        if metrics.governor is not None:
            # Retry backoff is simulated wait the deadline must count: the
            # governor charges it and polls, so a query drowning in retries
            # times out deterministically inside the retry loop.
            metrics.governor.on_retry_wait(metrics, backoff)

    def _apply_straggler(
        self,
        metrics: "ExecutionMetrics",
        stage: int,
        task: int,
        slowdown: float,
        work: _StageWork,
    ) -> None:
        task_sec = self._serial_sec(work) / max(1, work.tasks)
        threshold = self.config.speculation_multiplier
        if slowdown >= threshold:
            # Speculation races a fresh copy: pay the duplicate's work and
            # the delay before the scheduler notices the straggler, not the
            # full slowdown.
            metrics.speculative_tasks += 1
            metrics.retry_waves += 1
            self._charge_recovery(metrics, work, 1.0 / max(1, work.tasks))
            metrics.straggler_extra_sec += (threshold - 1.0) * task_sec
            metrics.fault_events.append(
                f"stage {stage} task {task}: straggler x{slowdown:.1f}, "
                "speculative duplicate launched"
            )
        else:
            metrics.straggler_extra_sec += (slowdown - 1.0) * task_sec
            metrics.fault_events.append(
                f"stage {stage} task {task}: straggler x{slowdown:.1f}"
            )

    def _recompute_lineage(self, metrics: "ExecutionMetrics", stage: int) -> None:
        """Recompute the dead worker's share of every shuffle output so far.

        Includes the stage that just completed: the worker held its share of
        that output too when it died.
        """
        fraction = 1.0 / self.config.num_workers
        for record in self._stage_records[: stage + 1]:
            if record.shuffle_bytes <= 0:
                continue
            metrics.recomputed_tasks += max(
                1, record.tasks // self.config.num_workers
            )
            metrics.retry_waves += 1
            self._charge_recovery(metrics, record, fraction)

    # -- accounting ------------------------------------------------------------

    def _take_stage_work(
        self, metrics: "ExecutionMetrics", tasks: int, note: str
    ) -> _StageWork:
        current = (
            metrics.bytes_scanned,
            metrics.rows_processed,
            metrics.narrow_rows_processed,
            metrics.shuffle_bytes,
            metrics.broadcast_bytes,
        )
        delta = tuple(now - then for now, then in zip(current, self._snapshot))
        self._snapshot = current
        return _StageWork(
            tasks=tasks,
            note=note,
            bytes_scanned=delta[0],
            rows_processed=delta[1],
            narrow_rows_processed=delta[2],
            shuffle_bytes=delta[3],
            broadcast_bytes=delta[4],
        )

    def _charge_recovery(
        self, metrics: "ExecutionMetrics", work: _StageWork, fraction: float
    ) -> None:
        # Recovery rows are charged unfused (re-execution restarts the
        # stage's pipeline from scratch), hence narrow rows at full weight.
        metrics.recovery_bytes_scanned += int(work.bytes_scanned * fraction)
        metrics.recovery_rows_processed += int(
            (work.rows_processed + work.narrow_rows_processed) * fraction
        )
        metrics.recovery_shuffle_bytes += int(work.shuffle_bytes * fraction)

    def _serial_sec(self, work: _StageWork) -> float:
        """Single-node seconds for a stage's work (per-task time × tasks)."""
        from .cluster import NARROW_FUSION_FACTOR

        config = self.config
        return config.data_scale * (
            work.bytes_scanned / config.scan_bytes_per_sec
            + (
                work.rows_processed
                + work.narrow_rows_processed / NARROW_FUSION_FACTOR
            )
            / config.rows_per_sec
            + 2 * work.shuffle_bytes / config.network_bytes_per_sec
        )

    def _latest_shuffle_producer(self, exclude_from: int) -> _StageWork | None:
        for record in reversed(self._stage_records[:exclude_from]):
            if record.shuffle_bytes > 0:
                return record
        return None


__all__ = [
    "FaultInjector",
    "FaultPlan",
    "MemoryPressure",
    "RETRY_BACKOFF_BASE_SEC",
    "RETRY_BACKOFF_CAP_SEC",
    "StragglerSpec",
    "TaskFault",
    "WorkerLoss",
    "retry_backoff_sec",
]
