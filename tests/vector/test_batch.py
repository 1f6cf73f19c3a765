"""ColumnBatch unit tests: selection-vector edges, byte accounting."""

import pytest

from repro.rdf.dictionary import default_dictionary
from repro.vector import (
    ColumnBatch,
    batch_bytes,
    estimate_batch_bytes,
    row_bytes_vector,
)


@pytest.fixture()
def interned_ids():
    """Three term IDs with known decoded lengths, dropped again afterwards."""
    dictionary = default_dictionary()
    before = len(dictionary.texts)
    ids = [dictionary.intern_text(text) for text in ("<http://ex/a>", '"x"', '"yy"')]
    yield ids
    if len(dictionary.texts) != before:
        dictionary.clear()


class TestSelectionVectorEdges:
    def test_empty_batch(self):
        batch = ColumnBatch.from_rows(2, [])
        assert batch.num_rows == 0
        assert batch.length == 0
        assert batch.rows() == []
        assert batch.compact().rows() == []
        assert batch_bytes(batch) == 0

    def test_empty_selection_over_populated_columns(self):
        batch = ColumnBatch((["a", "b"], [1, 2]), 2, sel=[])
        assert batch.num_rows == 0
        assert batch.rows() == []
        assert batch_bytes(batch) == 0

    def test_all_selected_matches_unselected(self):
        columns = (["a", "b", "c"], [1, None, 3])
        dense = ColumnBatch(columns, 3)
        selected = ColumnBatch(columns, 3, sel=list(range(3)))
        ranged = ColumnBatch(columns, 3, sel=range(3))
        assert selected.rows() == dense.rows() == ranged.rows()
        assert (
            batch_bytes(selected)
            == batch_bytes(dense)
            == batch_bytes(ranged)
        )

    def test_null_runs_survive_selection_and_compaction(self):
        """OPTIONAL's left joins leave runs of ``None`` in right-side
        columns; selection, compaction, and the null mask must all agree."""
        right = ["r0", None, None, None, "r4", None]
        batch = ColumnBatch((list("abcdef"), right), 6, sel=[1, 2, 3, 5])
        assert batch.null_mask(1) == [True, True, True, True]
        assert batch.rows() == [("b", None), ("c", None), ("d", None), ("f", None)]
        compacted = batch.compact()
        assert compacted.sel is None
        assert compacted.rows() == batch.rows()
        assert compacted.null_mask(1) == [True, True, True, True]

    def test_zero_width_batch_counts_rows(self):
        batch = ColumnBatch((), 4, sel=[0, 2])
        assert batch.num_rows == 2
        assert batch.rows() == [(), ()]

    def test_live_is_range_without_selection(self):
        batch = ColumnBatch((["a", "b"],), 2)
        assert list(batch.live()) == [0, 1]
        assert batch.live() == range(2)


class TestByteAccounting:
    """batch_bytes == estimate_batch_bytes == summed per-row prices."""

    #: Hand-priced rows of ``make_batch``: 8 framing + decoded text + 4 per
    #: term ID or string, 1 per NULL, 8 per plain int, 4 + elements per list
    #: ("<http://ex/a>" is 13 characters, '"x"' 3, '"yy"' 4).
    ROW_PRICES = [8 + 17 + 1, 8 + 7 + 7, 8 + 8 + (4 + 17 + 5), 8 + 17 + 8]

    def make_batch(self, interned_ids, sel=None):
        a, b, c = interned_ids
        columns = (
            [a, b, c, a],
            [None, "lit", [a, "s"], 7],
        )
        return ColumnBatch(columns, 4, sel=sel)

    @pytest.mark.parametrize("sel", [None, [], [0], [1, 3], list(range(4))])
    def test_three_way_equality(self, interned_ids, sel):
        batch = self.make_batch(interned_ids, sel=sel)
        expected_rows = sum(self.ROW_PRICES[i] for i in batch.live())
        assert estimate_batch_bytes(batch.columns, batch.live()) == expected_rows
        assert batch_bytes(batch) == expected_rows

    def test_row_bytes_vector_prices_each_row(self, interned_ids):
        batch = self.make_batch(interned_ids)
        vector = row_bytes_vector(batch.columns, batch.length)
        assert vector == self.ROW_PRICES

    def test_cached_vector_prices_selection_views(self, interned_ids):
        base = self.make_batch(interned_ids)
        full = batch_bytes(base)  # populates the shared row_bytes vector
        view = ColumnBatch(base.columns, base.length, sel=[0, 2], bytes_cache=base.bytes_cache)
        assert "row_bytes" in view.bytes_cache
        assert batch_bytes(view) == estimate_batch_bytes(base.columns, [0, 2])
        assert batch_bytes(view) < full

    def test_fresh_narrow_view_does_not_build_table_vector(self, interned_ids):
        batch = self.make_batch(interned_ids, sel=[1])
        assert batch_bytes(batch) == estimate_batch_bytes(batch.columns, [1])
        # Pricing a narrow selection must not memoize a table-length vector.
        assert "row_bytes" not in batch.bytes_cache
