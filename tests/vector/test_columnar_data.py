"""ColumnarData construction edges."""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import ColumnarData
from repro.errors import PlanError

KV = TableSchema([ColumnSchema("k", "string"), ColumnSchema("v", "string")])


class TestColumnarDataConstruction:
    def test_empty_dataset_gets_one_empty_batch(self):
        columnar = ColumnarData.from_rows(KV, [], 3)
        assert columnar.batch.length == 0
        assert columnar.num_partitions == 3
        assert columnar.bounds == (0, 0, 0, 0)
        assert columnar.num_rows == 0
        assert columnar.all_rows() == []
        assert columnar.estimated_bytes() == 0

    def test_partitioner_count_mismatch_rejected(self):
        from repro.engine.data import HashPartitioner
        from repro.vector import ColumnBatch

        batch = ColumnBatch.from_rows(2, [("a", "1")])
        with pytest.raises(PlanError, match="partition count"):
            ColumnarData(KV, batch, (0, 1), HashPartitioner(("k",), 3))
