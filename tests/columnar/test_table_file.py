"""Columnar file tests: round trips, pruning, row groups, statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import (
    ColumnSchema,
    TableSchema,
    file_statistics,
    read_schema,
    read_table,
    write_table,
)
from repro.errors import EncodingError, SchemaError
from repro.hdfs import SimulatedHdfs

SCHEMA = TableSchema(
    [
        ColumnSchema("s", "string"),
        ColumnSchema("n", "int"),
        ColumnSchema("tags", "list<string>"),
    ]
)

ROWS = [
    ("a", 1, ["t1", "t2"]),
    ("b", None, None),
    ("c", 3, []),
    ("d", 4, ["t1"]),
]


def make_fs() -> SimulatedHdfs:
    return SimulatedHdfs(num_datanodes=3, block_size=256)


class TestRoundTrip:
    def test_full_read(self):
        fs = make_fs()
        write_table(fs, "/t", SCHEMA, ROWS)
        schema, rows = read_table(fs, "/t")
        assert schema == SCHEMA
        assert rows == ROWS

    def test_empty_table(self):
        fs = make_fs()
        write_table(fs, "/t", SCHEMA, [])
        schema, rows = read_table(fs, "/t")
        assert rows == []
        assert schema == SCHEMA

    def test_row_groups_split(self):
        fs = make_fs()
        stats = write_table(fs, "/t", SCHEMA, ROWS, row_group_size=2)
        assert stats.row_groups == 2
        _, rows = read_table(fs, "/t")
        assert rows == ROWS

    def test_schema_only_read(self):
        fs = make_fs()
        write_table(fs, "/t", SCHEMA, ROWS)
        assert read_schema(fs, "/t") == SCHEMA

    def test_overwrite(self):
        fs = make_fs()
        write_table(fs, "/t", SCHEMA, ROWS)
        write_table(fs, "/t", SCHEMA, ROWS[:1], overwrite=True)
        _, rows = read_table(fs, "/t")
        assert rows == ROWS[:1]


class TestColumnPruning:
    def test_pruned_read_returns_selected_columns(self):
        fs = make_fs()
        write_table(fs, "/t", SCHEMA, ROWS)
        schema, rows = read_table(fs, "/t", columns=["n"])
        assert schema.names == ("n",)
        assert rows == [(1,), (None,), (3,), (4,)]

    def test_pruned_read_preserves_requested_order(self):
        fs = make_fs()
        write_table(fs, "/t", SCHEMA, ROWS)
        schema, rows = read_table(fs, "/t", columns=["tags", "s"])
        assert schema.names == ("tags", "s")
        assert rows[0] == (["t1", "t2"], "a")

    def test_unknown_column_rejected(self):
        fs = make_fs()
        write_table(fs, "/t", SCHEMA, ROWS)
        with pytest.raises(SchemaError):
            read_table(fs, "/t", columns=["zzz"])


class TestValidation:
    def test_wrong_arity_rejected(self):
        fs = make_fs()
        with pytest.raises(SchemaError):
            write_table(fs, "/t", SCHEMA, [("a", 1)])

    def test_wrong_cell_type_rejected(self):
        fs = make_fs()
        with pytest.raises(SchemaError):
            write_table(fs, "/t", SCHEMA, [("a", "not-an-int", None)])

    def test_every_row_has_its_arity_checked(self):
        rows = [*ROWS, ("short", 1), *ROWS]
        with pytest.raises(SchemaError, match="row has 2 cells but the schema has 3"):
            write_table(make_fs(), "/t", SCHEMA, rows)
        with pytest.raises(SchemaError, match="row has 4 cells"):
            write_table(make_fs(), "/t", SCHEMA, [*ROWS, ("long", 1, None, None)])

    def test_arity_comes_before_cell_types_and_columns_in_order(self):
        bad_everywhere = [(1, "x", "y"), ("a", 1)]
        with pytest.raises(SchemaError, match="row has 2 cells"):
            write_table(make_fs(), "/t", SCHEMA, bad_everywhere)
        with pytest.raises(SchemaError, match="column 's' expects string, got int"):
            write_table(make_fs(), "/t", SCHEMA, [("a", "x", None), (1, "x", "y")])
        with pytest.raises(SchemaError, match="column 'n' expects int, got str"):
            write_table(make_fs(), "/t", SCHEMA, [("a", 1, "y"), ("b", "x", None)])

    def test_nothing_is_written_when_validation_fails(self):
        fs = make_fs()
        with pytest.raises(SchemaError):
            write_table(fs, "/t", SCHEMA, [*ROWS, ("a", True, None)])
        assert not fs.exists("/t")

    def test_stored_cells_converts_each_chunk_before_validation(self):
        fs = make_fs()
        seen = []

        def spell_out(cells):
            seen.append(tuple(cells))
            return [{1: "one", 2: "two"}.get(cell, cell) for cell in cells]

        schema = TableSchema([ColumnSchema("a", "string"), ColumnSchema("b", "string")])
        write_table(fs, "/t", schema, [(1, "x"), (2, None)], stored_cells=spell_out)
        assert seen == [(1, 2), ("x", None)]
        assert read_table(fs, "/t")[1] == [("one", "x"), ("two", None)]
        with pytest.raises(SchemaError, match="column 'a' expects string, got int"):
            write_table(fs, "/u", schema, [(1, "x"), (3, None)], stored_cells=spell_out)

    def test_bad_magic_rejected(self):
        fs = make_fs()
        fs.write("/t", b"NOPE....")
        with pytest.raises(EncodingError):
            read_table(fs, "/t")

    def test_bad_row_group_size_rejected(self):
        with pytest.raises(ValueError):
            write_table(make_fs(), "/t", SCHEMA, ROWS, row_group_size=0)


class TestStatistics:
    def test_null_counts_recorded(self):
        fs = make_fs()
        stats = write_table(fs, "/t", SCHEMA, ROWS)
        n_chunk = [c for c in stats.chunks if c.column == "n"][0]
        assert n_chunk.null_count == 1
        assert n_chunk.num_values == 4

    def test_file_statistics_recomputation_matches(self):
        fs = make_fs()
        written = write_table(fs, "/t", SCHEMA, ROWS, row_group_size=2)
        recomputed = file_statistics(fs, "/t")
        assert recomputed.row_count == written.row_count
        assert recomputed.row_groups == written.row_groups
        assert recomputed.chunks == written.chunks

    def test_bytes_for_column(self):
        fs = make_fs()
        stats = write_table(fs, "/t", SCHEMA, ROWS)
        assert stats.bytes_for_column("s") > 0
        assert stats.bytes_for_column("zzz") == 0

    def test_null_heavy_column_is_tiny(self):
        fs = make_fs()
        schema = TableSchema([ColumnSchema("sparse", "string")])
        rows = [(None,)] * 5000 + [("value",)]
        stats = write_table(fs, "/t", schema, rows)
        assert stats.bytes_for_column("sparse") < 100

    def test_plain_only_encoding_restriction(self):
        fs = make_fs()
        stats = write_table(
            fs, "/t", SCHEMA, ROWS, allowed_encodings=("plain",)
        )
        assert stats.encodings_used() == {"plain"}


_cell = st.none() | st.text(max_size=8)
_rows = st.lists(st.tuples(_cell, st.none() | st.integers(-100, 100)), max_size=30)


@given(_rows, st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_property_round_trip_any_rows_any_grouping(rows, group_size):
    fs = SimulatedHdfs(num_datanodes=2, block_size=128)
    schema = TableSchema([ColumnSchema("a", "string"), ColumnSchema("b", "int")])
    write_table(fs, "/t", schema, rows, row_group_size=group_size)
    _, read_rows = read_table(fs, "/t")
    assert read_rows == rows
