"""ColumnarData and the PartitionedData size-memo invalidation contract."""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine.data import PartitionedData, estimate_row_bytes
from repro.engine import ColumnarData
from repro.errors import PlanError

KV = TableSchema([ColumnSchema("k", "string"), ColumnSchema("v", "string")])


def make_partitioned():
    return PartitionedData(KV, [[("a", "1"), ("b", "2")], [("c", "3")]])


class TestSizeMemoInvalidation:
    def test_memo_survives_repeat_reads(self):
        data = make_partitioned()
        assert data.num_rows == 3
        assert data.estimated_bytes() == sum(
            estimate_row_bytes(row) for row in data.all_rows()
        )
        assert data.num_rows == 3  # second read served from the memo

    def test_invalidate_resets_both_memos(self):
        data = make_partitioned()
        stale_rows = data.num_rows
        stale_bytes = data.estimated_bytes()
        data.partitions[1].append(("d", "4444444444"))
        # Without invalidation the memos keep pricing the old payload…
        assert data.num_rows == stale_rows
        assert data.estimated_bytes() == stale_bytes
        # …and invalidation makes both reflect the replacement.
        data.invalidate_size_cache()
        assert data.num_rows == stale_rows + 1
        assert data.estimated_bytes() == stale_bytes + estimate_row_bytes(
            ("d", "4444444444")
        )


class TestColumnarDataFromPartitioned:
    def test_round_trip_preserves_rows_and_sizes(self):
        data = make_partitioned()
        rows = data.num_rows
        size = data.estimated_bytes()
        columnar = ColumnarData.from_partitioned(data)
        assert columnar.num_partitions == data.num_partitions
        assert columnar.all_rows() == data.all_rows()
        assert columnar.num_rows == rows
        assert columnar.estimated_bytes() == size

    def test_fresh_source_sizes_computed_columnar_side(self):
        data = make_partitioned()
        columnar = ColumnarData.from_partitioned(data)
        assert columnar.num_rows == 3
        assert columnar.estimated_bytes() == sum(
            estimate_row_bytes(row) for row in data.all_rows()
        )

    def test_stale_memo_raises_plan_error(self):
        data = make_partitioned()
        assert data.num_rows == 3  # memoize
        data.partitions[0].append(("z", "9"))  # mutate without invalidating
        with pytest.raises(PlanError, match="stale PartitionedData size memo"):
            ColumnarData.from_partitioned(data)

    def test_invalidated_source_transposes_cleanly(self):
        data = make_partitioned()
        assert data.num_rows == 3
        data.partitions[0].append(("z", "9"))
        data.invalidate_size_cache()
        columnar = ColumnarData.from_partitioned(data)
        assert columnar.num_rows == 4

    def test_empty_dataset_gets_one_empty_batch(self):
        columnar = ColumnarData(KV, [])
        assert columnar.num_partitions == 1
        assert columnar.num_rows == 0
        assert columnar.all_rows() == []
        assert columnar.estimated_bytes() == 0

    def test_partitioner_count_mismatch_rejected(self):
        from repro.engine.data import HashPartitioner
        from repro.vector import ColumnBatch

        batches = [ColumnBatch.from_rows(2, [("a", "1")])]
        with pytest.raises(PlanError, match="partition count"):
            ColumnarData(KV, batches, HashPartitioner(("k",), 3))
