"""Fault injection and recovery tests: plans, retries, lineage, speculation."""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import (
    ClusterConfig,
    EngineSession,
    FaultPlan,
    SimulatedCluster,
    StragglerSpec,
    TaskFault,
    WorkerLoss,
    estimate_cost,
)
from repro.engine.cluster import (
    MAX_TASK_ATTEMPTS,
    SCAN_BYTES_PER_SEC,
    SPECULATION_MULTIPLIER,
    TASK_OVERHEAD_SEC,
    ExecutionMetrics,
)
from repro.engine.faults import (
    RETRY_BACKOFF_BASE_SEC,
    RETRY_BACKOFF_CAP_SEC,
    retry_backoff_sec,
)
from repro.errors import (
    ExecutionError,
    FaultToleranceExhaustedError,
    TaskFailedError,
)

KV = TableSchema([ColumnSchema("s", "string"), ColumnSchema("o", "string")])
VK = TableSchema([ColumnSchema("s", "string"), ColumnSchema("v", "string")])

LEFT_ROWS = [(f"s{i}", f"o{i % 7}") for i in range(40)]
RIGHT_ROWS = [(f"s{i}", f"v{i % 5}") for i in range(40)]


def make_session(fault_plan=None, **config_overrides) -> EngineSession:
    # A 1-byte broadcast threshold forces shuffle joins even on these tiny
    # tables, so fault plans have real shuffle lineage to play against.
    config_overrides.setdefault("broadcast_threshold_bytes", 1)
    config = ClusterConfig(num_workers=3, **config_overrides)
    session = EngineSession(SimulatedCluster(config, fault_plan=fault_plan))
    session.register_rows("left", KV, LEFT_ROWS)
    session.register_rows("right", VK, RIGHT_ROWS)
    return session


def run_join(session: EngineSession):
    frame = session.table("left").join(session.table("right"), on=["s"], how="inner")
    data, report = frame.collect_data_with_report()
    return data.all_rows(), report


@pytest.fixture(scope="module")
def profile():
    """Per-stage lineage records of the join query (via a no-op fault plan)."""
    inert = FaultPlan(stragglers=(StragglerSpec(stage=10**9, task=0, slowdown=2.0),))
    _, report = run_join(make_session(fault_plan=inert))
    return report.metrics.fault_injector._stage_records


class TestFaultPlan:
    def test_empty_plan_injects_nothing(self):
        plan = FaultPlan.none()
        assert plan.is_empty
        assert plan.task_fault(0, 0) is None
        assert plan.straggler_slowdown(0, 0) is None
        assert plan.worker_lost_at(0, 9) is None

    def test_rate_draws_are_deterministic(self):
        a = FaultPlan.from_rates(seed=7)
        b = FaultPlan.from_rates(seed=7)
        coords = [(stage, task) for stage in range(30) for task in range(6)]
        assert [a.task_fault(s, t) for s, t in coords] == [
            b.task_fault(s, t) for s, t in coords
        ]
        assert [a.straggler_slowdown(s, t) for s, t in coords] == [
            b.straggler_slowdown(s, t) for s, t in coords
        ]
        assert [a.worker_lost_at(s, 9) for s in range(30)] == [
            b.worker_lost_at(s, 9) for s in range(30)
        ]

    def test_rate_draws_are_order_independent(self):
        plan = FaultPlan.from_rates(seed=3)
        forward = [plan.task_fault(s, t) for s in range(10) for t in range(4)]
        backward = [
            plan.task_fault(s, t)
            for s in reversed(range(10))
            for t in reversed(range(4))
        ]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        coords = [(stage, task) for stage in range(40) for task in range(6)]
        a = [FaultPlan.from_rates(seed=1).task_fault(s, t) for s, t in coords]
        b = [FaultPlan.from_rates(seed=2).task_fault(s, t) for s, t in coords]
        assert a != b

    def test_explicit_faults_win_over_rates(self):
        fault = TaskFault(stage=0, task=0, failures=1, kind="task")
        plan = FaultPlan(seed=5, task_faults=(fault,))
        assert plan.task_fault(0, 0) is fault

    def test_from_rates_plans_stay_recoverable(self):
        plan = FaultPlan.from_rates(seed=11)
        for stage in range(50):
            for task in range(8):
                fault = plan.task_fault(stage, task)
                if fault is not None:
                    assert fault.failures < MAX_TASK_ATTEMPTS

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(seed=0, task_failure_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(max_failures=0)
        with pytest.raises(ValueError):
            FaultPlan(slowdown_range=(0.5, 2.0))


class TestBackoff:
    def test_backoff_doubles_then_caps(self):
        assert retry_backoff_sec(1) == pytest.approx(RETRY_BACKOFF_BASE_SEC)
        assert retry_backoff_sec(2) == pytest.approx(3 * RETRY_BACKOFF_BASE_SEC)
        many = retry_backoff_sec(50)
        assert many < 50 * RETRY_BACKOFF_CAP_SEC + 1
        # Far attempts each contribute exactly the cap.
        assert retry_backoff_sec(11) - retry_backoff_sec(10) == pytest.approx(
            RETRY_BACKOFF_CAP_SEC
        )


class TestTaskRetry:
    def test_results_identical_under_faults(self):
        baseline_rows, baseline_report = run_join(make_session())
        plan = FaultPlan(
            seed=None,
            task_faults=tuple(
                TaskFault(stage=s, task=0, failures=2) for s in range(10)
            ),
        )
        faulted_rows, faulted_report = run_join(make_session(fault_plan=plan))
        assert sorted(faulted_rows) == sorted(baseline_rows)
        # Main (fault-free) work counters are untouched by injection.
        assert (
            faulted_report.metrics.shuffle_bytes
            == baseline_report.metrics.shuffle_bytes
        )
        assert (
            faulted_report.metrics.rows_processed
            == baseline_report.metrics.rows_processed
        )

    def test_retries_counted_and_charged(self):
        plan = FaultPlan(
            task_faults=(TaskFault(stage=0, task=0, failures=2),)
        )
        _, report = run_join(make_session(fault_plan=plan))
        metrics = report.metrics
        assert metrics.task_retries == 2
        assert metrics.retry_waves >= 2
        assert metrics.retry_backoff_sec == pytest.approx(retry_backoff_sec(2))
        assert report.cost.recovery_sec > 0
        assert report.cost.total_sec > 0

    def test_recovery_makes_queries_slower_not_wrong(self):
        _, clean = run_join(make_session())
        # task_failure_rate=1.0 guarantees every task fails at least once.
        chaos_plan = FaultPlan.from_rates(seed=17, task_failure_rate=1.0)
        _, chaotic = run_join(make_session(fault_plan=chaos_plan))
        assert chaotic.cost.total_sec > clean.cost.total_sec
        assert chaotic.cost.recovery_sec > 0
        assert clean.cost.recovery_sec == 0

    def test_exhaustion_raises_typed_error(self):
        plan = FaultPlan(
            task_faults=(TaskFault(stage=0, task=0, failures=MAX_TASK_ATTEMPTS),)
        )
        session = make_session(fault_plan=plan)
        with pytest.raises(FaultToleranceExhaustedError) as excinfo:
            run_join(session)
        # The exception chain carries the last failed attempt, and the
        # typed error is part of the ExecutionError family.
        assert isinstance(excinfo.value.__cause__, TaskFailedError)
        assert isinstance(excinfo.value, ExecutionError)

    def test_failures_below_threshold_recover(self):
        failures = MAX_TASK_ATTEMPTS - 1
        plan = FaultPlan(
            task_faults=(TaskFault(stage=0, task=0, failures=failures),)
        )
        rows, report = run_join(make_session(fault_plan=plan))
        assert rows
        assert report.metrics.task_retries == failures


class TestFetchRetry:
    def test_fetch_failure_recomputes_map_output(self):
        # Two chained shuffle joins: the second join's fetch failure must
        # recompute the first join's map output via lineage. Inject one
        # fetch fault per stage; only post-shuffle stages recompute.
        plan = FaultPlan(
            task_faults=tuple(
                TaskFault(stage=s, task=0, failures=1, kind="fetch")
                for s in range(20)
            ),
        )
        session = make_session(fault_plan=plan)
        extra = TableSchema([ColumnSchema("s", "string"), ColumnSchema("w", "string")])
        session.register_rows("extra", extra, [(f"s{i}", f"w{i}") for i in range(40)])
        frame = (
            session.table("left")
            .join(session.table("right"), on=["s"], how="inner")
            .join(session.table("extra"), on=["s"], how="inner")
        )
        _, report = frame.collect_data_with_report()
        metrics = report.metrics
        assert metrics.fetch_retries > 0
        assert metrics.recomputed_tasks > 0
        assert metrics.retry_backoff_sec > 0

    def test_fetch_failure_without_upstream_recharges_itself(self, profile):
        # A fetch fault before any shuffle producer still retries the task;
        # there is just no map output to regenerate.
        plan = FaultPlan(
            task_faults=(TaskFault(stage=0, task=0, failures=1, kind="fetch"),),
        )
        _, report = run_join(make_session(fault_plan=plan))
        metrics = report.metrics
        assert metrics.fetch_retries == 1
        assert metrics.recomputed_tasks == 0


class TestWorkerLoss:
    def test_worker_loss_recomputes_upstream_shuffle_partitions(self, profile):
        # Losing a worker at the last stage kills its share of every shuffle
        # output produced so far; lineage recompute regenerates them.
        plan = FaultPlan(
            worker_losses=(WorkerLoss(stage=len(profile) - 1, worker=1),)
        )
        rows, report = run_join(make_session(fault_plan=plan))
        baseline_rows, _ = run_join(make_session())
        assert sorted(rows) == sorted(baseline_rows)
        metrics = report.metrics
        assert metrics.worker_losses == 1
        assert metrics.recomputed_tasks > 0
        assert metrics.recovery_shuffle_bytes > 0

    def test_same_worker_only_dies_once(self, profile):
        last = len(profile) - 1
        plan = FaultPlan(
            worker_losses=tuple(WorkerLoss(stage=s, worker=1) for s in range(last + 1))
        )
        _, report = run_join(make_session(fault_plan=plan))
        assert report.metrics.worker_losses == 1

    def test_two_distinct_workers_can_die(self):
        plan = FaultPlan(
            worker_losses=(WorkerLoss(stage=0, worker=0), WorkerLoss(stage=1, worker=1)),
        )
        _, report = run_join(make_session(fault_plan=plan))
        assert report.metrics.worker_losses == 2


@pytest.fixture(scope="module")
def busy_stage(profile):
    """Index of a stage with nonzero serial work (stragglers need task time)."""
    return max(
        range(len(profile)),
        key=lambda i: profile[i].rows_processed + profile[i].shuffle_bytes,
    )


class TestSpeculation:
    def test_slow_straggler_launches_speculative_duplicate(self, busy_stage):
        plan = FaultPlan(stragglers=(StragglerSpec(stage=busy_stage, task=0, slowdown=5.0),))
        _, report = run_join(make_session(fault_plan=plan))
        metrics = report.metrics
        assert metrics.speculative_tasks == 1
        assert metrics.straggler_extra_sec >= 0

    def test_mild_straggler_just_drags(self, busy_stage):
        plan = FaultPlan(stragglers=(StragglerSpec(stage=busy_stage, task=0, slowdown=1.2),))
        _, report = run_join(make_session(fault_plan=plan))
        metrics = report.metrics
        assert metrics.speculative_tasks == 0
        assert metrics.straggler_extra_sec > 0

    def test_speculation_starts_at_the_multiplier(self, busy_stage):
        def speculative_tasks(slowdown: float) -> int:
            spec = StragglerSpec(stage=busy_stage, task=0, slowdown=slowdown)
            _, report = run_join(make_session(fault_plan=FaultPlan(stragglers=(spec,))))
            return report.metrics.speculative_tasks

        assert speculative_tasks(SPECULATION_MULTIPLIER) == 1
        assert speculative_tasks(SPECULATION_MULTIPLIER - 0.01) == 0


class TestMetricsPlumbing:
    def test_merge_folds_recovery_counters(self):
        a = ExecutionMetrics(task_retries=1, recovery_shuffle_bytes=10)
        b = ExecutionMetrics(
            task_retries=2,
            fetch_retries=3,
            speculative_tasks=1,
            recomputed_tasks=4,
            worker_losses=1,
            retry_waves=5,
            retry_backoff_sec=0.5,
            straggler_extra_sec=0.25,
            recovery_bytes_scanned=100,
            recovery_rows_processed=200,
            recovery_shuffle_bytes=30,
            fault_events=["x"],
        )
        a.merge(b)
        assert a.task_retries == 3
        assert a.fetch_retries == 3
        assert a.speculative_tasks == 1
        assert a.recomputed_tasks == 4
        assert a.worker_losses == 1
        assert a.retry_waves == 5
        assert a.retry_backoff_sec == pytest.approx(0.5)
        assert a.straggler_extra_sec == pytest.approx(0.25)
        assert a.recovery_bytes_scanned == 100
        assert a.recovery_rows_processed == 200
        assert a.recovery_shuffle_bytes == 40
        assert a.fault_events == ["x"]
        assert a.recovered_faults == 3 + 3 + 1 + 1

    def test_estimate_cost_charges_recovery(self):
        config = ClusterConfig(num_workers=1)
        metrics = ExecutionMetrics(
            recovery_bytes_scanned=int(SCAN_BYTES_PER_SEC),
            retry_backoff_sec=1.0,
            straggler_extra_sec=0.5,
            retry_waves=2,
        )
        cost = estimate_cost(metrics, config)
        assert cost.recovery_sec == pytest.approx(1.0 + 1.0 + 0.5 + 2 * TASK_OVERHEAD_SEC)
        assert cost.total_sec == pytest.approx(cost.recovery_sec)

    def test_fault_events_logged(self):
        plan = FaultPlan(
            task_faults=(TaskFault(stage=0, task=0, failures=1),),
            stragglers=(StragglerSpec(stage=1, task=0, slowdown=9.0),),
        )
        _, report = run_join(make_session(fault_plan=plan))
        text = "\n".join(report.metrics.fault_events)
        assert "task-failure" in text
        assert "straggler" in text

    def test_session_summary_mentions_recovery(self):
        plan = FaultPlan(task_faults=(TaskFault(stage=0, task=0, failures=1),))
        _, report = run_join(make_session(fault_plan=plan))
        assert "recovered" in report.summary()
        _, clean = run_join(make_session())
        assert "recovered" not in clean.summary()


class TestClusterWiring:
    def test_fault_seed_in_config_builds_plan(self):
        cluster = SimulatedCluster(ClusterConfig(fault_seed=9))
        assert cluster.fault_plan is not None
        assert not cluster.fault_plan.is_empty
        metrics = cluster.new_query_metrics()
        assert metrics.fault_injector is not None

    def test_no_fault_seed_means_no_injector(self):
        cluster = SimulatedCluster()
        assert cluster.fault_plan is None
        assert cluster.new_query_metrics().fault_injector is None

    def test_chaos_seed_is_deterministic_end_to_end(self):
        first_rows, first = run_join(make_session(fault_seed=23))
        second_rows, second = run_join(make_session(fault_seed=23))
        assert first_rows == second_rows
        assert first.metrics.task_retries == second.metrics.task_retries
        assert first.cost.recovery_sec == pytest.approx(second.cost.recovery_sec)
