"""The grace-hash spill join: exact equivalence with the in-memory join.

The spilled join must be *invisible*: the match pairs it returns are the
ones the executor's build/probe returns over the whole batches — same
pairs, same order (left live order, then build insertion order, ``-1``
for a left-join miss) — for every join type, every fanout, and adversarial
inputs (NULL keys, duplicate keys, empty sides). Bucket files must also be
deterministic — byte-identical across reruns of the same inputs — which is
what makes governed chaos runs replayable. The spilled volume is charged
once per task holding a copy of a side.
"""

import os
import random
from pathlib import Path

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import ClusterConfig, EngineSession
from repro.engine.cluster import SimulatedCluster
from repro.engine.executor import _build_index, _gather_join, _probe_batch
from repro.governor import SpillStore, grace_hash_join
from repro.governor.spill import bucket_of
from repro.vector import ColumnBatch, estimate_batch_bytes


def _store(tmp_path):
    os.makedirs(str(tmp_path), exist_ok=True)
    return SpillStore(str(tmp_path))


def _random_rows(rng, count, width, key_cardinality, null_rate=0.15):
    rows = []
    for _ in range(count):
        row = []
        for column in range(width):
            if rng.random() < null_rate:
                row.append(None)
            else:
                row.append(f"c{column}-v{rng.randrange(key_cardinality)}")
        rows.append(tuple(row))
    return rows


HOWS = ("inner", "left")


def _bucket_kernel(width, how):
    """The executor's build/probe over one bucket pair (keys first)."""
    keys = list(range(width))

    def join_bucket(left_bucket, right_bucket):
        return _probe_batch(left_bucket, _build_index(right_bucket, keys), keys, how)

    return join_bucket


def _in_memory_pairs(left, right, left_keys, right_keys, how):
    """The match pairs of one build over all of ``right`` and one probe of
    all of ``left``."""
    return _probe_batch(left, _build_index(right, right_keys), left_keys, how)


def _spilled_pairs(left, right, left_keys, right_keys, how, fanout, store):
    """The same match pairs found through the grace-hash join."""
    return grace_hash_join(
        left, right, left_keys, right_keys, fanout, store,
        _bucket_kernel(len(left_keys), how),
    )


def _batches(left, right, widths):
    return ColumnBatch.from_rows(widths[0], left), ColumnBatch.from_rows(widths[1], right)


def _spilled_join(
    left, right, widths, left_keys, right_keys, right_keep, how, fanout, store
):
    """The spilled join's output rows, gathered by the executor's tail."""
    left_batch, right_batch = _batches(left, right, widths)
    out_left, out_right = _spilled_pairs(
        left_batch, right_batch, left_keys, right_keys, how, fanout, store
    )
    return _gather_join(
        left_batch, right_batch, out_left, out_right, right_keep, how
    ).rows()


class TestEquivalence:
    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("seed", range(8))
    def test_single_key_matches_in_memory_kernel(self, tmp_path, how, seed):
        rng = random.Random(seed)
        left, right = _batches(
            _random_rows(rng, rng.randrange(0, 40), 3, 5),
            _random_rows(rng, rng.randrange(0, 40), 2, 5),
            (3, 2),
        )
        expected = _in_memory_pairs(left, right, [1], [0], how)
        for fanout in (2, 4, 16):
            actual = _spilled_pairs(
                left, right, [1], [0], how, fanout,
                _store(tmp_path / f"{how}-{seed}-{fanout}"),
            )
            assert actual == expected, f"fanout={fanout}"

    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("seed", range(4))
    def test_multi_key_matches_in_memory_kernel(self, tmp_path, how, seed):
        rng = random.Random(1000 + seed)
        left, right = _batches(
            _random_rows(rng, rng.randrange(0, 30), 4, 3),
            _random_rows(rng, rng.randrange(0, 30), 3, 3),
            (4, 3),
        )
        expected = _in_memory_pairs(left, right, [0, 2], [0, 1], how)
        actual = _spilled_pairs(
            left, right, [0, 2], [0, 1], how, 4, _store(tmp_path / f"{how}-{seed}")
        )
        assert actual == expected

    def test_empty_sides(self, tmp_path):
        rows = [("a", "b"), ("c", "d")]
        assert _spilled_join(
            [], rows, (2, 2), [0], [0], [1], "inner", 2, _store(tmp_path / "l")
        ) == []
        assert _spilled_join(
            rows, [], (2, 2), [0], [0], [1], "left", 2, _store(tmp_path / "r")
        ) == [("a", "b", None), ("c", "d", None)]

    def test_selected_and_reordered_probe_side(self, tmp_path):
        """A probe batch read through a non-monotonic selection (a sorted
        view) spills in live order, and its pairs name physical rows."""
        left = ColumnBatch.from_rows(2, [("a", "0"), ("b", "1"), ("a", "2"), ("c", "3")])
        left = ColumnBatch(left.columns, left.length, sel=[3, 2, 0])
        right = ColumnBatch.from_rows(2, [("a", "x"), ("c", "y"), ("a", "z")])
        expected = _in_memory_pairs(left, right, [0], [0], "left")
        actual = _spilled_pairs(left, right, [0], [0], "left", 4, _store(tmp_path))
        assert actual == expected == ([3, 2, 2, 0, 0], [1, 0, 2, 0, 2])

    def test_unsupported_join_type_rejected(self, tmp_path):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError, match="unsupported join type"):
            _spilled_join(
                [("a",)], [("a",)], (1, 1), [0], [0], [], "full", 2, _store(tmp_path)
            )


class TestBuckets:
    def test_equal_keys_share_a_bucket(self):
        for fanout in (2, 8, 64):
            assert bucket_of(("k",), fanout) == bucket_of(("k",), fanout)

    def test_bucketing_is_decorrelated_from_the_shuffle_partitioner(self):
        # A shuffled partition holds keys congruent mod the partition count;
        # grace-hash buckets must still spread them, or every spilled row
        # would land in one bucket and the spill would degenerate.
        from repro.engine import stable_hash

        partitions = 4
        keys = [(f"key-{i}",) for i in range(400)]
        congruent = [k for k in keys if stable_hash(k) % partitions == 0]
        assert len(congruent) > 20
        buckets = {bucket_of(k, partitions) for k in congruent}
        assert len(buckets) == partitions

    def test_bucket_files_are_deterministic_across_reruns(self, tmp_path):
        rng = random.Random(7)
        left = _random_rows(rng, 30, 3, 4)
        right = _random_rows(rng, 30, 2, 4)
        contents = []
        for run in ("first", "second"):
            store = _store(tmp_path / run)
            _spilled_join(left, right, (3, 2), [0], [0], [1], "inner", 4, store)
            contents.append(
                [
                    (path.rsplit("/", 1)[-1], Path(path).read_bytes())
                    for path in store.paths
                ]
            )
        assert contents[0] == contents[1]

    def test_writes_one_left_and_one_right_file_per_bucket(self, tmp_path):
        store = _store(tmp_path)
        _spilled_join(
            [("a", 1)], [("a", 2)], (2, 2), [0], [0], [1], "inner", 4, store
        )
        assert len(store.paths) == 8  # 4 buckets × 2 sides
        names = sorted(os.path.basename(path) for path in store.paths)
        assert names == sorted(
            f"bucket-{bucket:04d}-{side}.pkl"
            for bucket in range(4)
            for side in ("left", "right")
        )


LEFT = TableSchema([ColumnSchema("k", "string"), ColumnSchema("a", "string")])
RIGHT = TableSchema([ColumnSchema("k", "string"), ColumnSchema("b", "string")])


def _governed_join(tmp_path, left_rows, right_rows, hint, budget):
    """Run one budgeted join over three partitions; its metrics."""
    config = ClusterConfig(
        num_workers=1, partitions_per_worker=3, memory_budget_bytes=budget,
        spill_dir=str(tmp_path),
    )
    session = EngineSession(SimulatedCluster(config))
    session.register_rows("l", LEFT, left_rows)
    session.register_rows("r", RIGHT, right_rows)
    joined = session.table("l").join(session.table("r"), on=["k"], hint=hint)
    _, report = joined.collect_data_with_report(run_optimizer=False)
    assert report.metrics.spills == 1
    return report.metrics


def _rows_bytes(rows):
    return estimate_batch_bytes(tuple(map(list, zip(*rows))), range(len(rows)))


class TestAccounting:
    def test_spill_bytes_use_the_engine_row_estimate(self, tmp_path):
        # A shuffle join: each task holds one placed slice of each side,
        # so each side is charged once.
        left = [("abc", "defg"), ("skipped", "row")]
        right = [("abc", "x"), ("abc", "yy")]
        metrics = _governed_join(tmp_path, left, right, "shuffle", budget=16)
        assert metrics.broadcast_count == 0
        expected = _rows_bytes(left) + _rows_bytes(right)
        assert metrics.spill_bytes == expected == (8 + 7 + 8) + (8 + 11 + 7) + (
            8 + 7 + 5
        ) + (8 + 7 + 6)

    def test_broadcast_side_is_charged_once_per_task(self, tmp_path):
        # A small left side under the budget broadcasts to all three right
        # partitions while the bigger right build spills: every task holds
        # a copy of the left side, the right side is charged once.
        left = [("k1", "a")]
        right = [(f"k{i}", "b" * 20) for i in range(6)]
        metrics = _governed_join(
            tmp_path, left, right, "auto", budget=_rows_bytes(left)
        )
        assert metrics.broadcast_count == 1
        assert metrics.spill_bytes == 3 * _rows_bytes(left) + _rows_bytes(right)
