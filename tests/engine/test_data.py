"""Partitioned-data primitives: hashing, partitioners, size estimates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.vector.batch as batch_module
from repro.columnar import ColumnSchema, TableSchema
from repro.engine import ColumnarData, EngineSession, partition_evenly, stable_hash
from repro.engine.data import HashPartitioner
from repro.errors import PlanError
from repro.rdf.dictionary import TERM_ID_BASE, default_dictionary
from repro.vector import ColumnBatch, estimate_batch_bytes

KV = TableSchema([ColumnSchema("k", "string"), ColumnSchema("v", "string")])


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("abc", "def")) == stable_hash(("abc", "def"))

    def test_differs_by_content(self):
        assert stable_hash(("a",)) != stable_hash(("b",))

    def test_non_string_values_hash(self):
        assert stable_hash((None, 5)) == stable_hash((None, 5))

    def test_known_values_are_pinned(self):
        """Guards reproducibility: partition layouts must not drift between
        releases (they are part of the deterministic benchmark results)."""
        assert stable_hash(("<http://ex/a>",)) == 1474185243
        assert stable_hash(("abc", "def")) == 27852855263
        assert stable_hash((0,)) == 7070836379803831727
        assert stable_hash((1, "x")) == 1169686467671577058
        assert stable_hash((None,)) == 3751981041

    def test_single_key_fast_path_matches_stable_hash(self):
        """The scalar-key fast path of ``HashPartitioner.place`` must put
        every row exactly where ``stable_hash`` of the one-element key tuple
        says — the multi-key path hashes tuples, and co-partitioned joins
        depend on both agreeing."""
        partitioner = HashPartitioner(("k",), 5)
        keys = ["abc", TERM_ID_BASE + 7, 123, None, ("odd", "key")]
        assert partitioner.place([keys], range(5)) == [
            [i for i in range(5) if stable_hash((keys[i],)) % 5 == index]
            for index in range(5)
        ]

    def test_dense_ints_scatter(self):
        """Consecutive dictionary IDs must not land in consecutive
        partitions (splitmix64 mixing, not identity hashing)."""
        ids = [TERM_ID_BASE + i for i in range(64)]
        placed = HashPartitioner(("k",), 8).place([ids], range(64))
        placements = [
            next(index for index, sel in enumerate(placed) if i in sel)
            for i in range(64)
        ]
        assert len(set(placements)) == 8
        assert placements != sorted(placements)


class TestPartitioning:
    def test_partition_evenly_round_robins(self):
        parts = partition_evenly([(i,) for i in range(7)], 3)
        assert [len(p) for p in parts] == [3, 2, 2]

    def test_partition_evenly_validates(self):
        with pytest.raises(PlanError):
            partition_evenly([], 0)

    def test_partition_by_hash_groups_keys(self):
        rows = [("a", "1"), ("b", "2"), ("a", "3")]
        data = ColumnarData.from_rows(KV, rows, 4, ("k",))
        assert data.partitioner == HashPartitioner(("k",), 4)
        assert data.is_partitioned_on(("k",))
        assert not data.is_partitioned_on(("v",))
        # Same key always lands in the same partition, in input order, and
        # the batches are compacted (memos only live on unselected batches).
        assert all(batch.sel is None for batch in data.batches)
        home = stable_hash(("a",)) % 4
        assert [row for row in data.batches[home].rows() if row[0] == "a"] == [
            ("a", "1"),
            ("a", "3"),
        ]
        assert ("b", "2") in data.batches[stable_hash(("b",)) % 4].rows()
        assert data.num_rows == 3

    def test_repartition_matches_partitioner(self):
        partitioner = HashPartitioner(("k",), 3)
        placed = partitioner.place([["a", "b", "c"]], [2, 0])
        # Only the live rows are placed.
        assert len(placed) == 3
        assert sorted(i for sel in placed for i in sel) == [0, 2]

    def test_partitioner_count_mismatch_rejected(self):
        empty = ColumnBatch.from_rows(2, [])
        with pytest.raises(PlanError):
            ColumnarData(KV, [empty, empty], HashPartitioner(("k",), 3))

    def test_unkeyed_rows_spread_round_robin(self):
        data = ColumnarData.from_rows(KV, [(str(i), "v") for i in range(7)], 3)
        assert data.partitioner is None
        assert [batch.num_rows for batch in data.batches] == [3, 2, 2]
        assert all(batch.sel is None for batch in data.batches)


def _one_row_bytes(*cells):
    """What the cost model charges for a single row with these cells."""
    return estimate_batch_bytes(tuple([cell] for cell in cells), range(1))


class TestRowBytes:
    def test_null_cheaper_than_string(self):
        assert _one_row_bytes(None) < _one_row_bytes("hello world")

    def test_longer_strings_cost_more(self):
        assert _one_row_bytes("x" * 100) > _one_row_bytes("x")

    def test_lists_counted_per_element(self):
        short = _one_row_bytes(["a"])
        long = _one_row_bytes(["a"] * 10)
        assert long > short

    def test_numbers_fixed_cost(self):
        assert _one_row_bytes(123456789) == _one_row_bytes(1)

    def test_term_ids_charge_decoded_size(self):
        """The cost model must keep charging the *emulated decoded* bytes:
        shuffle totals and broadcast decisions cannot change just because
        cells shrank to dictionary IDs."""
        text = "<http://ex/a-rather-long-iri-for-sizing>"
        term_id = default_dictionary().intern_text(text)
        assert _one_row_bytes(term_id) == _one_row_bytes(text) == 8 + len(text) + 4

    def test_term_ids_in_lists_charge_decoded_size(self):
        texts = ["<http://ex/one>", "<http://ex/two-longer>"]
        ids = [default_dictionary().intern_text(t) for t in texts]
        assert _one_row_bytes(ids) == _one_row_bytes(texts)


class TestSizingMemoization:
    def _counting(self, monkeypatch):
        real = batch_module.row_bytes_vector
        state = {"calls": 0, "per_columns": {}, "kept": []}

        def wrapper(columns, length):
            state["calls"] += 1
            state["per_columns"][id(columns)] = state["per_columns"].get(id(columns), 0) + 1
            state["kept"].append(columns)  # pin the tuples so ids stay unique
            return real(columns, length)

        monkeypatch.setattr(batch_module, "row_bytes_vector", wrapper)
        return state

    def test_estimated_bytes_walks_cells_once(self, monkeypatch):
        state = self._counting(monkeypatch)
        data = ColumnarData.from_rows(KV, [("a", "1"), ("b", "2"), ("c", "3")], 2)
        first = data.estimated_bytes()
        assert data.estimated_bytes() == first
        assert data.estimated_bytes() == first
        assert state["calls"] == data.num_partitions

    def test_num_rows_memoized(self):
        data = ColumnarData.from_rows(KV, [("a", "1"), ("b", "2")], 2)
        assert data.num_rows == 2
        assert data._num_rows == 2  # populated by the first access

    def test_three_join_plan_sizes_each_row_at_most_once(self, monkeypatch):
        """Regression: the join planner consults both sides of every join;
        the seed re-walked every cell per consultation, turning a 3-join
        plan into an O(joins × cells) sizing pass."""
        session = EngineSession()

        def schema(*names):
            return TableSchema([ColumnSchema(name, "string") for name in names])

        n = 40
        session.register_rows("t1", schema("a", "b"), [(f"k{i}", f"x{i}") for i in range(n)])
        session.register_rows("t2", schema("b", "c"), [(f"x{i}", f"y{i}") for i in range(n)])
        session.register_rows("t3", schema("c", "d"), [(f"y{i}", f"z{i}") for i in range(n)])
        session.register_rows("t4", schema("d", "e"), [(f"z{i}", f"w{i}") for i in range(n)])

        state = self._counting(monkeypatch)
        frame = (
            session.table("t1")
            .join(session.table("t2"), on=["b"])
            .join(session.table("t3"), on=["c"])
            .join(session.table("t4"), on=["d"])
        )
        rows = frame.collect()
        assert len(rows) == n
        assert state["calls"] > 0
        assert max(state["per_columns"].values()) == 1


@given(
    st.lists(st.tuples(st.text(max_size=5), st.text(max_size=5)), max_size=40),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_property_hash_partitioning_preserves_rows(rows, num_partitions):
    """Hash partitioning is a permutation: no row lost or duplicated."""
    data = ColumnarData.from_rows(KV, rows, num_partitions, ("k",))
    assert sorted(data.all_rows()) == sorted(rows)
    assert data.num_partitions == num_partitions
    for index, batch in enumerate(data.batches):
        assert batch.sel is None
        assert all(stable_hash((key,)) % num_partitions == index for key in batch.columns[0])
