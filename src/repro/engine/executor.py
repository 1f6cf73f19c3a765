"""Physical execution of logical plans over the simulated cluster.

The executor walks a (previously optimized) logical plan bottom-up, producing
:class:`~repro.engine.data.ColumnarData` — one
:class:`~repro.vector.ColumnBatch` of dictionary-ID cells per partition — at
every node and charging work to an :class:`ExecutionMetrics`. Scans hand out
the catalog's stored batches (or a cached column-subset view of them)
untouched; filters narrow a selection vector with one list comprehension per
predicate; projections and semi/anti joins are zero-copy column-subset or
selection-only views; hash joins gather output columns from index lists
through one build/probe kernel, which the over-budget grace-hash spill join
(:mod:`repro.governor.spill`) runs bucket by bucket. Row tuples are only
materialized at the edges (:meth:`ColumnarData.all_rows`), which is where
term IDs finally decode — late materialization.

Join strategy selection happens here, with the runtime sizes in hand,
mirroring Spark's adaptive behaviour:

- **colocated join** — both sides already hash-partitioned on the join keys
  with equal partition counts: zip partitions, no network traffic;
- **broadcast hash join** — the smaller side fits under the cluster's
  broadcast threshold (Catalyst's ``autoBroadcastJoinThreshold``): ship the
  small side once, keep the big side in place;
- **shuffle hash join** — otherwise: hash-repartition both sides on the keys
  and join partition-wise, paying the full shuffle.

Every operator charges its counters *before* recording its stage: the seeded
:class:`~repro.engine.faults.FaultInjector` attributes the counter delta
since the previous stage to the stage being recorded, so the order of
charges — not just their totals — is part of the contract.
"""

from __future__ import annotations

from itertools import chain, repeat

from ..errors import ExecutionError, PlanError
from ..governor.spill import grace_hash_join
from ..vector import ColumnBatch
from .catalog import Catalog
from .cluster import ClusterConfig, ExecutionMetrics
from .data import ColumnarData, HashPartitioner
from .expressions import ColumnRef
from .logical import (
    Aggregate,
    Distinct,
    Explode,
    Filter,
    InMemoryRelation,
    Join,
    LogicalPlan,
    Project,
    TableScan,
    Union,
)


#: Machine-readable ``op`` tag per logical plan class, attached to trace
#: spans so EXPLAIN ANALYZE can align the span tree with the Join Tree.
_SPAN_OPS = {
    "TableScan": "scan",
    "InMemoryRelation": "local",
    "Filter": "filter",
    "Project": "project",
    "Join": "join",
    "Explode": "explode",
    "Distinct": "distinct",
    "Union": "union",
    "Aggregate": "aggregate",
}


class PhysicalExecutor:
    """Executes logical plans against a catalog under a cluster config."""

    def __init__(self, catalog: Catalog, config: ClusterConfig):
        self.catalog = catalog
        self.config = config

    def execute(
        self, plan: LogicalPlan, metrics: ExecutionMetrics, tracer=None
    ) -> ColumnarData:
        """Run ``plan`` and return its output, rows still unmaterialized.

        With a :class:`~repro.obs.tracer.Tracer` attached, every operator
        records a span carrying its output cardinality and the deltas of
        every registry counter it charged (see :mod:`repro.obs.metrics`).
        """
        result = self._run(plan, metrics, tracer)
        metrics.rows_output = result.num_rows
        # Every output row's term decode was deferred past execution.
        metrics.rows_late_materialized += result.num_rows
        return result

    # -- dispatch -------------------------------------------------------------

    def _run(
        self, plan: LogicalPlan, metrics: ExecutionMetrics, tracer=None
    ) -> ColumnarData:
        if tracer is None:
            return self._dispatch(plan, metrics, None, None)
        # Imported lazily: the engine layer sits below obs in the module
        # graph, and untraced runs never touch it.
        from ..obs.metrics import snapshot_execution_metrics

        kind = type(plan).__name__
        op = _SPAN_OPS.get(kind, kind.lower())
        if isinstance(plan, Join) and plan.how == "cross":
            op = "cross"
        with tracer.span(kind, op=op, detail=plan._describe_line()) as span:
            before = snapshot_execution_metrics(metrics)
            events_before = len(metrics.fault_events)
            result = self._dispatch(plan, metrics, tracer, span)
            span.set("rows_out", result.num_rows)
            span.set("partitions", result.num_partitions)
            span.record_counters(before, snapshot_execution_metrics(metrics))
            if len(metrics.fault_events) > events_before:
                span.set("fault_events", list(metrics.fault_events[events_before:]))
        return result

    def _dispatch(
        self, plan: LogicalPlan, metrics: ExecutionMetrics, tracer, span
    ) -> ColumnarData:
        """Route one plan node to its operator.

        ``engine.vector_batches`` counts each operator's output batches
        (charged after the operator's stage record; the fault injector only
        snapshots the scan/row/shuffle work counters, so the ordering is
        inert to fault accounting).
        """
        if isinstance(plan, TableScan):
            result = self._scan(plan, metrics)
        elif isinstance(plan, InMemoryRelation):
            result = self._local(plan, metrics)
        elif isinstance(plan, Filter):
            result = self._filter(plan, metrics, tracer)
        elif isinstance(plan, Project):
            result = self._project(plan, metrics, tracer)
        elif isinstance(plan, Join):
            result = self._join(plan, metrics, tracer, span)
        elif isinstance(plan, Explode):
            result = self._explode(plan, metrics, tracer)
        elif isinstance(plan, Distinct):
            result = self._distinct(plan, metrics, tracer)
        elif isinstance(plan, Union):
            result = self._union(plan, metrics, tracer)
        elif isinstance(plan, Aggregate):
            result = self._aggregate(plan, metrics, tracer)
        else:
            raise PlanError(f"no physical implementation for {type(plan).__name__}")
        metrics.vector_batches += result.num_partitions
        return result

    # -- leaves ---------------------------------------------------------------

    def _scan(self, plan: TableScan, metrics: ExecutionMetrics) -> ColumnarData:
        table = self.catalog.get(plan.table_name)
        columns = plan.columns
        metrics.bytes_scanned += table.scan_bytes(columns)
        metrics.rows_scanned += table.row_count
        metrics.record_stage(
            tasks=table.data.num_partitions,
            note=f"Scan {plan.table_name} cols={list(columns) if columns else '*'}",
        )
        return table.scan(columns)

    def _local(self, plan: InMemoryRelation, metrics: ExecutionMetrics) -> ColumnarData:
        metrics.record_stage(tasks=1, note=f"LocalRelation {plan.label}")
        return ColumnarData.from_rows(
            plan.relation_schema, list(plan.rows), self.config.default_partitions
        )

    # -- narrow operators --------------------------------------------------------

    def _filter(self, plan: Filter, metrics: ExecutionMetrics, tracer) -> ColumnarData:
        child = self._run(plan.child, metrics, tracer)
        predicate = plan.condition.bind_vector(child.schema)
        metrics.narrow_rows_processed += child.num_rows
        metrics.record_stage(
            tasks=child.num_partitions, note=f"Filter {plan.condition.describe()}"
        )
        # The selection produced over an unselected batch is a pure function of
        # (columns, condition); prepared-statement plans reuse their condition
        # objects across repeated queries, so the computed selection is memoized
        # on the batch's shared cache, keyed by the condition itself (identity
        # hash — holding it in the key pins the object, so the key can never
        # collide with a later condition the way a bare id() could). Selection
        # vectors are never mutated downstream, making the share safe.
        memo_key = ("filter", plan.condition)
        batches = []
        for batch in child.batches:
            if batch.sel is None:
                sel = batch.bytes_cache.get(memo_key)
                if sel is None:
                    sel = predicate(batch.columns, batch.live())
                    batch.bytes_cache[memo_key] = sel
            else:
                sel = predicate(batch.columns, batch.live())
            batches.append(ColumnBatch(batch.columns, batch.length, sel, batch.bytes_cache))
        return ColumnarData(child.schema, batches, child.partitioner)

    def _project(self, plan: Project, metrics: ExecutionMetrics, tracer) -> ColumnarData:
        child = self._run(plan.child, metrics, tracer)
        metrics.narrow_rows_processed += child.num_rows
        metrics.record_stage(tasks=child.num_partitions, note=plan._describe_line())
        if plan.is_rename_only:
            # Pure column shuffles share the underlying vectors and the
            # selection — no cells are touched at all.
            indexes = [child.schema.index_of(expr.name) for _, expr in plan.outputs]
            batches = [
                ColumnBatch(tuple(batch.columns[i] for i in indexes), batch.length, batch.sel)
                for batch in child.batches
            ]
        else:
            # Constant outputs need value columns aligned with the live rows,
            # so compact first; the column outputs stay whole-column.
            batches = []
            for source in child.batches:
                compacted = source.compact()
                length = compacted.length
                out_columns = tuple(
                    compacted.columns[child.schema.index_of(expression.name)]
                    if isinstance(expression, ColumnRef)
                    else [expression.value] * length
                    for _, expression in plan.outputs
                )
                batches.append(ColumnBatch(out_columns, length))
        partitioner = _project_partitioner(plan, child.partitioner)
        return ColumnarData(plan.schema, batches, partitioner)

    def _explode(self, plan: Explode, metrics: ExecutionMetrics, tracer) -> ColumnarData:
        child = self._run(plan.child, metrics, tracer)
        index = child.schema.index_of(plan.column)
        if metrics.governor is not None:
            metrics.governor.charge_site(metrics, child.estimated_bytes())
        metrics.narrow_rows_processed += child.num_rows
        metrics.record_stage(tasks=child.num_partitions, note=plan._describe_line())
        # An explode of an unselected batch is a pure function of (columns,
        # column index); persistent scan batches keep their exploded form (and
        # its size memos) across queries.
        memo_key = ("explode", index)
        batches = []
        for batch in child.batches:
            if batch.sel is None:
                cached = batch.bytes_cache.get(memo_key)
                if cached is not None:
                    batches.append(cached)
                    continue
            source = batch.columns[index]
            live = batch.live()
            # C-speed flatten: empty/None cells contribute zero elements, and
            # the gather list repeats each source row once per element.
            if batch.sel is None:
                cells = [cell or () for cell in source]
            else:
                cells = [source[i] or () for i in live]
            lens = list(map(len, cells))
            flat = list(chain.from_iterable(cells))
            if batch.sel is None and lens and min(lens) == 1 == max(lens):
                # Every cell holds exactly one element: the explode is a pure
                # unwrap of the list column — all other columns pass through.
                out_columns = tuple(
                    flat if j == index else column
                    for j, column in enumerate(batch.columns)
                )
                out = ColumnBatch(out_columns, batch.length)
            else:
                gather = list(chain.from_iterable(map(repeat, live, lens)))
                out_columns = tuple(
                    flat if j == index else [column[i] for i in gather]
                    for j, column in enumerate(batch.columns)
                )
                out = ColumnBatch(out_columns, len(gather))
            if batch.sel is None:
                batch.bytes_cache[memo_key] = out
            batches.append(out)
        partitioner = child.partitioner
        if partitioner is not None and plan.column in partitioner.columns:
            partitioner = None
        return ColumnarData(plan.schema, batches, partitioner)

    # -- joins ---------------------------------------------------------------------

    def _join(
        self, plan: Join, metrics: ExecutionMetrics, tracer, span
    ) -> ColumnarData:
        left = self._run(plan.left, metrics, tracer)
        right = self._run(plan.right, metrics, tracer)
        if plan.how == "cross":
            if span is not None:
                span.set("strategy", "cartesian")
            return self._cross_join(plan, left, right, metrics)
        keys = plan.on
        left_key_idx = [left.schema.index_of(k) for k in keys]
        right_key_idx = [right.schema.index_of(k) for k in keys]
        right_keep_idx = [
            i for i, column in enumerate(right.schema.columns) if column.name not in keys
        ]

        left_bytes = left.estimated_bytes()
        right_bytes = right.estimated_bytes()
        strategy = self._choose_strategy(plan, left, right, left_bytes, right_bytes, keys)
        # Degradation ladder: a broadcast build over the memory budget falls
        # back to a shuffle join; a hash build over budget runs the same
        # build/probe one grace-hash disk bucket at a time, trading speed
        # for bounded memory.
        governor = metrics.governor
        spill_fanout = 0
        if governor is not None:
            if strategy == "broadcast":
                build_bytes = (
                    right_bytes
                    if right_bytes <= left_bytes or plan.how != "inner"
                    else left_bytes
                )
                if governor.should_degrade_broadcast(metrics, build_bytes, span):
                    strategy = "shuffle"
            spill_fanout = governor.plan_join_build(metrics, right_bytes, span)

        def build_probe(left_batch: ColumnBatch, right_batch: ColumnBatch) -> ColumnBatch:
            build = _build_index(right_batch, right_key_idx)
            return _probe_batch(
                left_batch, right_batch, build, left_key_idx, right_keep_idx, plan.how
            )

        def join_pair(left_batch: ColumnBatch, right_batch: ColumnBatch) -> ColumnBatch:
            if spill_fanout:
                return grace_hash_join(
                    left_batch,
                    right_batch,
                    left_key_idx,
                    right_key_idx,
                    spill_fanout,
                    governor.new_spill_store(metrics),
                    build_probe,
                )
            return build_probe(left_batch, right_batch)

        if span is not None:
            span.set("on", list(keys))
            span.set("how", plan.how)
            span.set(
                "strategy",
                {
                    "colocated": "colocated",
                    "broadcast": "broadcast-hash",
                    "shuffle": "shuffle-hash",
                }[strategy],
            )

        # Work is charged before the stage is recorded: the fault injector
        # attributes the counter delta since the previous stage to this one.
        metrics.rows_processed += left.num_rows + right.num_rows
        if strategy == "colocated":
            metrics.colocated_joins += 1
            metrics.record_stage(
                tasks=left.num_partitions, note=f"ColocatedJoin on={list(keys)}"
            )
            partitioner = left.partitioner
            pairs = zip(left.batches, right.batches)
        elif strategy == "broadcast":
            # Only inner joins may broadcast the probe (left) side: for
            # semi/anti/left joins a left row must be matched against the
            # *whole* build side at once, so the build side must be the one
            # replicated — i.e. the right side.
            small_is_right = right_bytes <= left_bytes or plan.how != "inner"
            small_bytes = right_bytes if small_is_right else left_bytes
            if span is not None:
                span.set("build", "right" if small_is_right else "left")
            metrics.broadcast_bytes += small_bytes
            metrics.broadcast_count += 1
            metrics.record_stage(
                tasks=(left if small_is_right else right).num_partitions,
                note=f"BroadcastHashJoin on={list(keys)} build={'right' if small_is_right else 'left'}",
            )
            if small_is_right:
                # The replicated build side is one unselected batch, so its
                # index is built by the first probe and memoized on the
                # batch for every further left batch.
                right_batch = right.concat()
                partitioner = left.partitioner
                pairs = [(left_batch, right_batch) for left_batch in left.batches]
            else:
                # Inner join only: the small left side replicates to every
                # right partition, so the build runs per right batch against
                # the one concatenated probe side.
                left_batch = left.concat()
                partitioner = None
                pairs = [(left_batch, right_batch) for right_batch in right.batches]
        else:  # shuffle
            num_partitions = self.config.default_partitions
            partitioner = HashPartitioner(columns=keys, num_partitions=num_partitions)
            metrics.shuffle_bytes += left_bytes + right_bytes
            metrics.shuffle_rows += left.num_rows + right.num_rows
            metrics.record_stage(
                tasks=num_partitions, note=f"ShuffleHashJoin on={list(keys)}"
            )
            pairs = zip(
                _repartition(left, left_key_idx, partitioner),
                _repartition(right, right_key_idx, partitioner),
            )
        batches = [join_pair(left_batch, right_batch) for left_batch, right_batch in pairs]
        if plan.how in ("semi", "anti"):
            out_partitioner = left.partitioner
        else:
            out_partitioner = partitioner
            if out_partitioner is not None and out_partitioner.num_partitions != len(batches):
                out_partitioner = None
        return ColumnarData(plan.schema, batches, out_partitioner)

    def _cross_join(
        self, plan: Join, left: ColumnarData, right: ColumnarData, metrics: ExecutionMetrics
    ) -> ColumnarData:
        """Cartesian product on columns: repeat the big side's cells in place,
        tile the broadcast small side — no per-row tuple concatenation."""
        left_bytes = left.estimated_bytes()
        right_bytes = right.estimated_bytes()
        small_is_right = right_bytes <= left_bytes
        metrics.broadcast_bytes += min(left_bytes, right_bytes)
        metrics.broadcast_count += 1
        metrics.rows_processed += left.num_rows + right.num_rows
        big = left if small_is_right else right
        small = (right if small_is_right else left).concat()
        small_rows = small.length
        metrics.record_stage(tasks=big.num_partitions, note="CartesianProduct")
        batches: list[ColumnBatch] = []
        for batch in big.batches:
            compacted = batch.compact()
            big_rows = compacted.length
            repeated = [
                [value for value in column for _ in range(small_rows)]
                for column in compacted.columns
            ]
            tiled = [list(column) * big_rows for column in small.columns]
            columns = repeated + tiled if small_is_right else tiled + repeated
            batches.append(ColumnBatch(tuple(columns), big_rows * small_rows))
        return ColumnarData(plan.schema, batches)

    def _choose_strategy(
        self,
        plan: Join,
        left: ColumnarData,
        right: ColumnarData,
        left_bytes: int,
        right_bytes: int,
        keys: tuple[str, ...],
    ) -> str:
        if plan.hint == "broadcast":
            return "broadcast"
        if (
            left.is_partitioned_on(keys)
            and right.is_partitioned_on(keys)
            and left.num_partitions == right.num_partitions
        ):
            return "colocated"
        if plan.hint == "shuffle":
            return "shuffle"
        # The threshold compares emulated sizes: local bytes × data_scale.
        threshold = self.config.broadcast_threshold_bytes / self.config.data_scale
        if plan.how != "inner":
            # Non-inner joins can only broadcast the build (right) side.
            if right_bytes <= threshold:
                return "broadcast"
            return "shuffle"
        if min(left_bytes, right_bytes) <= threshold:
            return "broadcast"
        return "shuffle"

    # -- wide operators -----------------------------------------------------------

    def _distinct(self, plan: Distinct, metrics: ExecutionMetrics, tracer) -> ColumnarData:
        child = self._run(plan.child, metrics, tracer)
        if metrics.governor is not None:
            metrics.governor.charge_site(metrics, child.estimated_bytes())
        all_columns = tuple(child.schema.names)
        if child.is_partitioned_on(all_columns):
            batches = child.batches
            partitioner = child.partitioner
        else:
            num_partitions = self.config.default_partitions
            partitioner = HashPartitioner(columns=all_columns, num_partitions=num_partitions)
            metrics.shuffle_bytes += child.estimated_bytes()
            metrics.shuffle_rows += child.num_rows
            key_idx = list(range(len(all_columns)))
            batches = _repartition(child, key_idx, partitioner)
        metrics.rows_processed += child.num_rows
        metrics.record_stage(tasks=len(batches), note="Distinct")
        deduped = []
        for batch in batches:
            columns = batch.columns
            seen: set[tuple] = set()
            keep: list[int] = []
            for i in batch.live():
                frozen = _freeze_row(tuple(column[i] for column in columns))
                if frozen not in seen:
                    seen.add(frozen)
                    keep.append(i)
            deduped.append(ColumnBatch(columns, batch.length, keep, batch.bytes_cache))
        return ColumnarData(child.schema, deduped, partitioner)

    def _aggregate(self, plan: Aggregate, metrics: ExecutionMetrics, tracer) -> ColumnarData:
        """Hash aggregation with map-side partial aggregation.

        Each input batch pre-aggregates locally (Spark's partial aggregate),
        then only the per-group partial states shuffle — the reason
        COUNT-style queries are cheap even over big inputs.
        """
        child = self._run(plan.child, metrics, tracer)
        if metrics.governor is not None:
            metrics.governor.charge_site(metrics, child.estimated_bytes())
        key_idx = [child.schema.index_of(key) for key in plan.keys]
        input_idx = [
            child.schema.index_of(spec.input_column)
            if spec.input_column is not None
            else None
            for spec in plan.aggregates
        ]
        metrics.rows_processed += child.num_rows

        partials: list[dict[tuple, list]] = []
        for batch in child.batches:
            columns = batch.columns
            key_columns = [columns[i] for i in key_idx]
            local: dict[tuple, list] = {}
            for i in batch.live():
                key = tuple(column[i] for column in key_columns)
                state = local.get(key)
                if state is None:
                    state = [
                        set() if spec.op == "count_distinct" else 0
                        for spec in plan.aggregates
                    ]
                    local[key] = state
                for position, (spec, column) in enumerate(zip(plan.aggregates, input_idx)):
                    if column is not None:
                        value = columns[column][i]
                        if value is None:
                            continue
                    else:
                        value = None
                    if spec.op == "count_distinct":
                        if column is None:
                            value = tuple(col[i] for col in columns)
                        state[position].add(_freeze_value(value))
                    else:
                        state[position] += 1
            partials.append(local)

        partial_groups = sum(len(local) for local in partials)
        metrics.shuffle_rows += partial_groups
        metrics.shuffle_bytes += partial_groups * (16 + 8 * len(plan.aggregates))
        metrics.record_stage(tasks=child.num_partitions, note=plan._describe_line())

        merged: dict[tuple, list] = {}
        for local in partials:
            for key, state in local.items():
                target = merged.get(key)
                if target is None:
                    merged[key] = state
                    continue
                for position, spec in enumerate(plan.aggregates):
                    if spec.op == "count_distinct":
                        target[position] |= state[position]
                    else:
                        target[position] += state[position]
        if not plan.keys and not merged:
            merged[()] = [
                set() if spec.op == "count_distinct" else 0 for spec in plan.aggregates
            ]

        rows = []
        for key in sorted(merged, key=_group_sort_key):
            state = merged[key]
            counts = tuple(
                len(value) if isinstance(value, set) else value for value in state
            )
            rows.append(key + counts)
        # Keyed groups are hash-placed on the keys; a global aggregate is one
        # row in one partition.
        num_partitions = (
            min(self.config.default_partitions, max(1, len(rows))) if plan.keys else 1
        )
        return ColumnarData.from_rows(plan.schema, rows, num_partitions, plan.keys)

    def _union(self, plan: Union, metrics: ExecutionMetrics, tracer) -> ColumnarData:
        results = [self._run(child, metrics, tracer) for child in plan.inputs]
        metrics.record_stage(tasks=len(results), note="Union")
        batches: list[ColumnBatch] = []
        for result in results:
            batches.extend(result.batches)
        return ColumnarData(plan.schema, batches)


# -- batch plumbing -----------------------------------------------------------


def _repartition(
    data: ColumnarData, key_indexes: list[int], partitioner: HashPartitioner
) -> list[ColumnBatch]:
    """Columnar shuffle: one concatenated batch, viewed per target partition.

    The shuffle write is a single gather into one batch plus per-partition
    selection vectors over it — target batches share the concatenated
    columns instead of copying rows into per-partition lists.
    """
    combined = data.concat()
    return [
        ColumnBatch(combined.columns, combined.length, sel, combined.bytes_cache)
        for sel in partitioner.place(
            [combined.columns[i] for i in key_indexes], combined.live()
        )
    ]


def _build_index(batch: ColumnBatch, key_indexes: list[int]) -> dict:
    """Hash-join build side: key → live row indices, insertion-ordered.

    NULL keys (any NULL part for multi-key joins) never enter the index, so
    a NULL probe key finds no match — SQL semantics. For an unselected batch
    the index is a pure function of (columns, keys), so it is memoized in the
    batch's shared cache — scans of build-side tables keep their indexes
    across queries. Probes only read the index, never mutate it.
    """
    cache_key = None
    if batch.sel is None:
        cache_key = ("build", tuple(key_indexes))
        cached = batch.bytes_cache.get(cache_key)
        if cached is not None:
            return cached
    build: dict = {}
    if len(key_indexes) == 1:
        column = batch.columns[key_indexes[0]]
        build_get = build.get
        for i in batch.live():
            key = column[i]
            if key is not None:
                bucket = build_get(key)
                if bucket is None:
                    build[key] = [i]
                else:
                    bucket.append(i)
        if cache_key is not None:
            batch.bytes_cache[cache_key] = build
        return build
    key_columns = [batch.columns[i] for i in key_indexes]
    for i in batch.live():
        key = tuple(column[i] for column in key_columns)
        if any(part is None for part in key):
            continue
        build.setdefault(key, []).append(i)
    if cache_key is not None:
        batch.bytes_cache[cache_key] = build
    return build


def _probe_batch(
    left: ColumnBatch,
    right: ColumnBatch,
    build: dict,
    left_key_idx: list[int],
    right_keep_idx: list[int],
    how: str,
) -> ColumnBatch:
    """Probe one left batch against a build index over ``right``.

    Emits left-major output in build insertion order. Semi/anti joins are
    selection-only views over the left batch (zero copies); inner/left
    joins gather per column from index lists, with ``-1`` marking a
    left-join miss to fill NULLs on the right side.
    """
    single = len(left_key_idx) == 1
    if single:
        probe_column = left.columns[left_key_idx[0]]
        probe_key = probe_column.__getitem__
    else:
        probe_columns = [left.columns[i] for i in left_key_idx]

        def probe_key(i):
            key = tuple(column[i] for column in probe_columns)
            if any(part is None for part in key):
                return None  # NULL keys never match (SQL semantics)
            return key

    build_get = build.get
    if how == "semi":
        sel = [i for i in left.live() if build_get(probe_key(i))]
        return ColumnBatch(left.columns, left.length, sel, left.bytes_cache)
    if how == "anti":
        sel = [i for i in left.live() if not build_get(probe_key(i))]
        return ColumnBatch(left.columns, left.length, sel, left.bytes_cache)

    out_left: list[int] = []
    out_right: list[int] = []
    if how == "inner":
        for i in left.live():
            matches = build_get(probe_key(i))
            if matches:
                for m in matches:
                    out_left.append(i)
                    out_right.append(m)
        misses = False
    elif how == "left":
        for i in left.live():
            matches = build_get(probe_key(i))
            if matches:
                for m in matches:
                    out_left.append(i)
                    out_right.append(m)
            else:
                out_left.append(i)
                out_right.append(-1)
        misses = True
    else:
        raise ExecutionError(f"unsupported join type {how!r}")

    columns: list[list] = [
        [column[i] for i in out_left] for column in left.columns
    ]
    for j in right_keep_idx:
        column = right.columns[j]
        if misses:
            columns.append([None if i < 0 else column[i] for i in out_right])
        else:
            columns.append([column[i] for i in out_right])
    return ColumnBatch(tuple(columns), len(out_left))


def _project_partitioner(plan: Project, partitioner: HashPartitioner | None):
    """Survive the partitioner through a rename-only projection."""
    if partitioner is None:
        return None
    rename: dict[str, str] = {}
    for out_name, expression in plan.outputs:
        if isinstance(expression, ColumnRef):
            rename.setdefault(expression.name, out_name)
    try:
        new_columns = tuple(rename[name] for name in partitioner.columns)
    except KeyError:
        return None
    return HashPartitioner(columns=new_columns, num_partitions=partitioner.num_partitions)


def _freeze_row(row: tuple) -> tuple:
    return tuple(tuple(v) if isinstance(v, list) else v for v in row)


def _freeze_value(value):
    """Hashable stand-in for a cell value or a whole row (for DISTINCT)."""
    if isinstance(value, tuple):
        return _freeze_row(value)
    if isinstance(value, list):
        return tuple(value)
    return value


def _group_sort_key(key: tuple):
    """Deterministic ordering of group keys (NULLs first)."""
    return tuple((value is None, "" if value is None else repr(value)) for value in key)


__all__ = ["PhysicalExecutor"]
