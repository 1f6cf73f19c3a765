"""The grace-hash spill join: exact equivalence with the in-memory join.

The spilled join must be *invisible*: identical rows in identical order to
the executor's build/probe run over the whole partition pair, for every
join type, every fanout, and adversarial inputs (NULL keys, duplicate keys,
empty sides). Bucket files must also be deterministic — byte-identical
across reruns of the same inputs — which is what makes governed chaos runs
replayable.
"""

import os
import random
from pathlib import Path

import pytest

from repro.engine import ExecutionMetrics
from repro.engine.executor import _build_index, _probe_batch
from repro.governor import SpillStore, grace_hash_join
from repro.governor.spill import bucket_of
from repro.vector import ColumnBatch, estimate_batch_bytes


def _store(tmp_path, metrics=None):
    os.makedirs(str(tmp_path), exist_ok=True)
    return SpillStore(str(tmp_path), metrics or ExecutionMetrics())


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


HOWS = ("inner", "left", "semi", "anti")


def _kernel(left_keys, right_keys, right_keep, how):
    """The executor's build/probe over one batch pair."""

    def build_probe(left_batch, right_batch):
        build = _build_index(right_batch, right_keys)
        return _probe_batch(left_batch, right_batch, build, left_keys, right_keep, how)

    return build_probe


def _in_memory_join(left, right, widths, left_keys, right_keys, right_keep, how):
    """The kernel over one whole partition pair, as rows."""
    return _kernel(left_keys, right_keys, right_keep, how)(
        ColumnBatch.from_rows(widths[0], left), ColumnBatch.from_rows(widths[1], right)
    ).rows()


def _spilled_join(
    left, right, widths, left_keys, right_keys, right_keep, how, fanout, store
):
    """The same kernel run through the grace-hash join, as rows."""
    return grace_hash_join(
        ColumnBatch.from_rows(widths[0], left),
        ColumnBatch.from_rows(widths[1], right),
        left_keys,
        right_keys,
        fanout,
        store,
        _kernel(left_keys, right_keys, right_keep, how),
    ).rows()


class TestEquivalence:
    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("seed", range(8))
    def test_single_key_matches_in_memory_kernel(self, tmp_path, how, seed):
        rng = random.Random(seed)
        left = _random_rows(rng, rng.randrange(0, 40), 3, 5)
        right = _random_rows(rng, rng.randrange(0, 40), 2, 5)
        expected = _in_memory_join(left, right, (3, 2), [1], [0], [1], how)
        for fanout in (2, 4, 16):
            actual = _spilled_join(
                left, right, (3, 2), [1], [0], [1], how, fanout,
                _store(tmp_path / f"{how}-{seed}-{fanout}"),
            )
            assert actual == expected, f"fanout={fanout}"

    @pytest.mark.parametrize("how", HOWS)
    @pytest.mark.parametrize("seed", range(4))
    def test_multi_key_matches_in_memory_kernel(self, tmp_path, how, seed):
        rng = random.Random(1000 + seed)
        left = _random_rows(rng, rng.randrange(0, 30), 4, 3)
        right = _random_rows(rng, rng.randrange(0, 30), 3, 3)
        expected = _in_memory_join(left, right, (4, 3), [0, 2], [0, 1], [2], how)
        actual = _spilled_join(
            left, right, (4, 3), [0, 2], [0, 1], [2], how, 4,
            _store(tmp_path / f"{how}-{seed}"),
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
        view) spills in live order, not physical order."""
        left = ColumnBatch.from_rows(2, [("a", "0"), ("b", "1"), ("a", "2"), ("c", "3")])
        left = ColumnBatch(left.columns, left.length, sel=[3, 2, 0])
        right = ColumnBatch.from_rows(2, [("a", "x"), ("c", "y"), ("a", "z")])
        kernel = _kernel([0], [0], [1], "left")
        expected = kernel(left, right).rows()
        actual = grace_hash_join(left, right, [0], [0], 4, _store(tmp_path), kernel)
        assert actual.rows() == expected
        assert actual.sel is None

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


class TestAccounting:
    def test_spill_bytes_use_the_engine_row_estimate(self, tmp_path):
        metrics = ExecutionMetrics()
        left = [("abc", "defg"), ("skipped", "row")]
        right = [("abc", "x")]
        # Only live rows spill, so only they are charged.
        left_batch = ColumnBatch(ColumnBatch.from_rows(2, left).columns, 2, sel=[0])
        right_batch = ColumnBatch.from_rows(2, right)
        grace_hash_join(
            left_batch, right_batch, [0], [0], 2, _store(tmp_path, metrics),
            _kernel([0], [0], [1], "inner"),
        )
        expected = estimate_batch_bytes(
            left_batch.columns, [0]
        ) + estimate_batch_bytes(right_batch.columns, range(1))
        assert metrics.spill_bytes == expected == (8 + 7 + 8) + (8 + 7 + 5)
