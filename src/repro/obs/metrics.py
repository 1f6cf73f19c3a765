"""The metrics contract: one audited namespace for every counter.

Before this module, the counters the system emits lived in ad-hoc places —
:class:`~repro.engine.cluster.ExecutionMetrics` fields, chaos
:class:`~repro.testing.differential.FaultStats` fields, server stats —
each named only by its Python identifier. The :class:`MetricsRegistry` gives
every counter a stable dotted name (``engine.shuffle_bytes``,
``faults.task_retries``, ``serve.plan_cache_hits``, ``cost.recovery_sec``),
a unit, the layer that emits it, and a one-line description.

Everything downstream draws from this namespace:

- trace spans record counter *deltas* under registry names
  (:func:`snapshot_execution_metrics`);
- ``docs/METRICS.md`` is generated from :meth:`MetricsRegistry.markdown`
  (``prost-repro metrics --markdown``) and a test keeps it in sync;
- registry-completeness tests assert that every numeric field of
  ``ExecutionMetrics``, ``CostBreakdown``, and ``FaultStats`` is registered,
  so a new counter cannot ship undocumented.
"""

from __future__ import annotations

from dataclasses import dataclass
from ..errors import ValidationError


@dataclass(frozen=True)
class CounterSpec:
    """The documented contract of one counter.

    Attributes:
        name: stable dotted name, ``<layer>.<counter>``.
        layer: emitting layer (``engine``, ``faults``, ``governor``,
            ``serve``, ``cost``).
        unit: what one increment means (``bytes``, ``rows``, ``count``,
            ``seconds``).
        description: one line of documentation.
    """

    name: str
    layer: str
    unit: str
    description: str


class MetricsRegistry:
    """Ordered collection of :class:`CounterSpec` entries, keyed by name."""

    def __init__(self) -> None:
        self._specs: dict[str, CounterSpec] = {}

    def register(self, name: str, layer: str, unit: str, description: str) -> CounterSpec:
        """Add one counter to the contract (names must be unique)."""
        if name in self._specs:
            raise ValidationError(f"counter {name!r} is already registered")
        spec = CounterSpec(name=name, layer=layer, unit=unit, description=description)
        self._specs[name] = spec
        return spec

    def get(self, name: str) -> CounterSpec:
        """The spec registered under ``name`` (KeyError when unknown)."""
        return self._specs[name]

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self, layer: str | None = None) -> list[str]:
        """All registered names, optionally restricted to one layer."""
        return [
            spec.name for spec in self._specs.values()
            if layer is None or spec.layer == layer
        ]

    def layers(self) -> list[str]:
        """Distinct layers, in registration order."""
        seen: list[str] = []
        for spec in self._specs.values():
            if spec.layer not in seen:
                seen.append(spec.layer)
        return seen

    def markdown(self) -> str:
        """The full contract as a Markdown document (→ ``docs/METRICS.md``)."""
        lines = [
            "# Metrics contract",
            "",
            "Every counter the system emits, by layer. Generated by",
            "`prost-repro metrics --markdown`; a tier-1 test asserts this file",
            "is byte-identical to the registry, so the document cannot drift",
            "from the code.",
            "",
        ]
        layer_blurbs = {
            "engine": "Work counters of the fault-free data plane, accumulated "
            "per executed physical plan (`repro.engine.cluster.ExecutionMetrics`).",
            "faults": "Recovery counters charged by the fault injector "
            "(`repro.engine.faults`); all zero when no faults are injected. "
            "Chaos-mode `FaultStats` aggregates the starred subset across runs.",
            "governor": "Resource-governance counters charged by the per-query "
            "governor (`repro.governor`); all zero when no memory budget or "
            "deadline is configured.",
            "serve": "Session-server counters of the multi-tenant serving "
            "layer (`repro.serve.server.QueryServer`): cache effectiveness "
            "and admission shedding.",
            "cost": "Simulated seconds derived from the counters above by the "
            "cluster cost model (`repro.engine.cluster.estimate_cost`).",
        }
        for layer in self.layers():
            lines.append(f"## `{layer}` layer")
            lines.append("")
            blurb = layer_blurbs.get(layer)
            if blurb:
                lines.append(blurb)
                lines.append("")
            lines.append("| Counter | Unit | Description |")
            lines.append("|---|---|---|")
            for spec in self._specs.values():
                if spec.layer == layer:
                    lines.append(
                        f"| `{spec.name}` | {spec.unit} | {spec.description} |"
                    )
            lines.append("")
        return "\n".join(lines)


def _build_default_registry() -> MetricsRegistry:
    """The project-wide contract instance (see module docstring)."""
    registry = MetricsRegistry()
    engine = [
        ("bytes_scanned", "bytes", "Columnar bytes read from storage by table scans."),
        ("rows_scanned", "rows", "Rows produced by table scans before any filtering."),
        ("rows_processed", "rows", "Rows consumed by wide operators (joins, distinct, aggregate)."),
        ("narrow_rows_processed", "rows", "Rows consumed by narrow operators (filter/project/explode); charged at the whole-stage-codegen fused rate."),
        ("shuffle_bytes", "bytes", "Bytes hash-repartitioned across the network (each byte crosses twice)."),
        ("shuffle_rows", "rows", "Rows moved by shuffles."),
        ("broadcast_bytes", "bytes", "Bytes of build sides replicated to every worker by broadcast joins."),
        ("broadcast_count", "count", "Broadcast joins executed."),
        ("colocated_joins", "count", "Joins answered with zero network traffic (both sides pre-partitioned on the keys)."),
        ("stages", "count", "Task waves launched (each pays the per-stage scheduling overhead)."),
        ("tasks", "count", "Tasks launched across all stages."),
        ("rows_output", "rows", "Rows in the final result of the physical plan."),
        ("vector_batches", "count", "Partitions emitted by physical operators."),
        ("rows_late_materialized", "rows", "Result rows whose decode from term IDs was deferred past execution to emission (late materialization)."),
    ]
    for name, unit, description in engine:
        registry.register(f"engine.{name}", "engine", unit, description)
    faults = [
        ("task_retries", "count", "Task attempts that failed and were retried in place. (*)"),
        ("fetch_retries", "count", "Shuffle-fetch failures that forced a parent map task re-run. (*)"),
        ("speculative_tasks", "count", "Speculative duplicates launched to race stragglers. (*)"),
        ("recomputed_tasks", "count", "Tasks re-run to recompute lost shuffle outputs via lineage. (*)"),
        ("worker_losses", "count", "Whole-worker deaths survived during a query. (*)"),
        ("retry_waves", "count", "Extra task waves scheduled for retries (each pays the stage overhead)."),
        ("retry_backoff_sec", "seconds", "Serial capped-exponential backoff waited before retries."),
        ("straggler_extra_sec", "seconds", "Serial drag of stragglers not fully hidden by speculation."),
        ("recovery_bytes_scanned", "bytes", "Bytes re-scanned while recomputing lost work."),
        ("recovery_rows_processed", "rows", "Rows re-processed (unfused) while recomputing lost work."),
        ("recovery_shuffle_bytes", "bytes", "Bytes re-shuffled while recomputing lost shuffle outputs."),
    ]
    for name, unit, description in faults:
        registry.register(f"faults.{name}", "faults", unit, description)
    governor = [
        ("budget_trips", "count", "Operator sites whose estimated working set exceeded the effective memory budget."),
        ("spills", "count", "Hash joins degraded to partitioned grace-hash spill-to-disk builds."),
        ("spill_partitions", "count", "Disk partitions (buckets) written across all spilled joins."),
        ("spill_bytes", "bytes", "Estimated bytes of the spilled join sides' rows, charged once per task holding a copy of a side."),
        ("degraded_joins", "count", "Broadcast joins demoted to shuffle joins because the build side exceeded the budget."),
        ("memory_pressure_events", "count", "Injected memory-pressure faults that shrank the effective budget mid-query."),
        ("peak_memory_bytes", "bytes", "Largest single working-set charge seen by the budget (high-water mark, max-merged)."),
    ]
    for name, unit, description in governor:
        registry.register(f"governor.{name}", "governor", unit, description)
    serve = [
        ("queries_served", "count", "Queries answered by the server, across every path (cold, cached plan, cached result)."),
        ("plan_cache_hits", "count", "Queries answered with a cached verified plan (translate → optimize → plan-verify skipped)."),
        ("plan_cache_misses", "count", "Queries that had to plan from scratch (first sighting of a shape, or epoch change)."),
        ("plan_cache_evictions", "count", "Plan-cache entries dropped: LRU pressure plus PV401 lineage evictions."),
        ("result_cache_hits", "count", "Queries answered entirely from the result cache (no execution at all)."),
        ("result_cache_misses", "count", "Result-cache lookups that missed and fell through to execution."),
        ("admission_rejections", "count", "Queries shed at the governor's admission gate (queue full or slot wait timed out)."),
    ]
    for name, unit, description in serve:
        registry.register(f"serve.{name}", "serve", unit, description)
    cost = [
        ("scan_sec", "Parallel storage-scan time (bytes_scanned at the per-node scan rate × workers)."),
        ("cpu_sec", "Parallel row-processing time (fused narrow rows + wide rows at the per-core rate)."),
        ("shuffle_sec", "Network time of shuffles (bytes cross the wire twice, aggregate bandwidth)."),
        ("broadcast_sec", "Network time of broadcasts plus a fixed per-broadcast latency."),
        ("overhead_sec", "Serial task-scheduling overhead (stages × per-stage constant)."),
        ("recovery_sec", "Recovery work re-run at first-run rates, plus backoff, straggler drag, and retry-wave overhead."),
        ("spill_sec", "Local disk I/O of grace-hash spills (spill_bytes written and read back at the scan rate)."),
    ]
    for name, description in cost:
        registry.register(f"cost.{name}", "cost", "seconds", description)
    return registry


#: The process-wide metrics contract. Import this, don't build your own.
REGISTRY = _build_default_registry()

# -- counter-name constants ---------------------------------------------------
#
# The single source of truth for counter names used *as strings* elsewhere
# (trace rendering, snapshots). The metrics lint
# (``repro.analysis.lint.metrics``) rejects inline ``"layer.counter"``
# literals outside this module, so a renamed or misspelled counter cannot
# silently diverge from the registry; a test asserts every constant below is
# registered.

ENGINE_BYTES_SCANNED = "engine.bytes_scanned"
ENGINE_SHUFFLE_BYTES = "engine.shuffle_bytes"
ENGINE_BROADCAST_BYTES = "engine.broadcast_bytes"

#: ExecutionMetrics fields that live under the ``faults.`` namespace (they
#: are charged by the fault injector, not the data plane).
_FAULT_FIELDS = (
    "task_retries",
    "fetch_retries",
    "speculative_tasks",
    "recomputed_tasks",
    "worker_losses",
    "retry_waves",
    "retry_backoff_sec",
    "straggler_extra_sec",
    "recovery_bytes_scanned",
    "recovery_rows_processed",
    "recovery_shuffle_bytes",
)

#: ExecutionMetrics fields that live under the ``governor.`` namespace
#: (charged by the resource governor's budget/spill/pressure machinery).
_GOVERNOR_FIELDS = (
    "budget_trips",
    "spills",
    "spill_partitions",
    "spill_bytes",
    "degraded_joins",
    "memory_pressure_events",
    "peak_memory_bytes",
)

_ENGINE_FIELDS = (
    "bytes_scanned",
    "rows_scanned",
    "rows_processed",
    "narrow_rows_processed",
    "shuffle_bytes",
    "shuffle_rows",
    "broadcast_bytes",
    "broadcast_count",
    "colocated_joins",
    "stages",
    "tasks",
    "rows_output",
    "vector_batches",
    "rows_late_materialized",
)


def snapshot_execution_metrics(metrics) -> dict[str, int | float]:
    """Registry-named snapshot of an ``ExecutionMetrics`` object.

    Engine counters land under ``engine.*``, injector-charged counters under
    ``faults.*`` — the keys trace spans and JSON traces use.
    """
    snapshot: dict[str, int | float] = {}
    for field_name in _ENGINE_FIELDS:
        snapshot[f"engine.{field_name}"] = getattr(metrics, field_name)
    for field_name in _FAULT_FIELDS:
        snapshot[f"faults.{field_name}"] = getattr(metrics, field_name)
    for field_name in _GOVERNOR_FIELDS:
        snapshot[f"governor.{field_name}"] = getattr(metrics, field_name)
    return snapshot


#: ServerStats fields, mirrored one-for-one under the ``serve.`` namespace
#: (a registry-completeness test holds the two in lockstep).
_SERVE_FIELDS = (
    "queries_served",
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_cache_evictions",
    "result_cache_hits",
    "result_cache_misses",
    "admission_rejections",
)


def snapshot_server_stats(stats) -> dict[str, int | float]:
    """Registry-named snapshot of a ``repro.serve`` ``ServerStats`` object."""
    return {f"serve.{field_name}": getattr(stats, field_name) for field_name in _SERVE_FIELDS}


def snapshot_cost(cost) -> dict[str, float]:
    """Registry-named snapshot of a ``CostBreakdown``."""
    return {
        f"cost.{name}": getattr(cost, name)
        for name in (
            "scan_sec",
            "cpu_sec",
            "shuffle_sec",
            "broadcast_sec",
            "overhead_sec",
            "recovery_sec",
            "spill_sec",
        )
    }
