"""The shipped encoders against the cell-by-cell oracle: same bytes, and the
bytes decode back to the cells."""

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnSchema, TableSchema, write_table
from repro.columnar import encoding as shipped
from repro.columnar.encoding import ENCODINGS
from repro.columnar.schema import ALL_TYPES
from repro.errors import SchemaError
from repro.hdfs import SimulatedHdfs

from . import reference_encoders as oracle
from .reference_decoders import decode

_NAN = float("nan")

_SCALARS = {
    "string": st.text(max_size=6) | st.sampled_from(["", "a", "<http://ex/a>", "é "]),
    "int": st.integers(-(2**63) + 1, 2**63 - 1) | st.sampled_from([0, 1, -1, 63, 64, 127, 128]),
    "double": st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(-5, 5)
    | st.booleans()
    | st.sampled_from([0.0, -0.0, 1, 1.0, True, _NAN, math.nan]),
    "bool": st.booleans(),
}


def _cells(type_name: str):
    """Valid cells of a column type, NULLs included."""
    if type_name.startswith("list<"):
        element = _SCALARS[type_name[len("list<") : -1]]
        return st.none() | st.lists(element, max_size=3)
    return st.none() | _SCALARS[type_name]


def _columns(type_name: str):
    """Chunks with repeats and runs: draws from a small pool of cells, each
    repeated 1-200 times (long NULL runs need two-byte run lengths)."""
    pool = st.lists(_cells(type_name), min_size=1, max_size=6)
    run = st.tuples(st.integers(0, 5), st.sampled_from([1, 1, 1, 2, 3, 130, 200]))

    def build(drawn):
        cells, runs = drawn
        column = []
        for index, length in runs:
            cell = cells[index % len(cells)]
            # A list cell is a fresh object per row, as the loaders build them.
            column.extend(list(cell) if isinstance(cell, list) else cell for _ in range(length))
        return column

    return st.tuples(pool, st.lists(run, max_size=12)).map(build)


_ALLOWED = [
    order
    for size in range(1, len(ENCODINGS) + 1)
    for order in permutations(ENCODINGS, size)
]


def _same(left, right) -> bool:
    """Cell equality that takes NaN to equal NaN and tells 0.0 from -0.0."""
    if isinstance(left, float) and isinstance(right, float):
        return math.isnan(left) and math.isnan(right) or (
            left == right and math.copysign(1, left) == math.copysign(1, right)
        )
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(map(_same, left, right))
    return type(left) is type(right) and left == right


def _assert_equivalent(column: ColumnSchema, values: list) -> None:
    for name in ENCODINGS:
        expected = getattr(oracle, f"encode_{name}")(column, values)
        assert getattr(shipped, f"encode_{name}")(column, values) == expected, name
    plain = decode(column, "plain", shipped.encode_plain(column, values))
    wanted = [float(v) if column.type == "double" and v is not None else v for v in values]
    assert len(plain) == len(wanted) and all(map(_same, plain, wanted))
    for allowed in _ALLOWED:
        name, data = shipped.encode_best(column, values, allowed)
        assert (name, data) == oracle.encode_best(column, values, allowed), allowed
        decoded = decode(column, name, data)
        # RLE and DICTIONARY store one cell per run / entry: == cells, as the
        # oracle defines it (so -0.0 may come back as the 0.0 it followed).
        assert len(decoded) == len(values)
        assert all(
            a == b or (a != a and b != b) for a, b in zip(decoded, values)
        ), allowed


@pytest.mark.parametrize("type_name", ALL_TYPES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encoders_match_the_oracle(type_name, data):
    column = ColumnSchema("c", type_name)
    _assert_equivalent(column, data.draw(_columns(type_name)))


@pytest.mark.parametrize("type_name", ALL_TYPES)
@pytest.mark.parametrize("values", [[], [None], [None] * 5, [None] * 300], ids=len)
def test_empty_and_all_null_columns(type_name, values):
    _assert_equivalent(ColumnSchema("c", type_name), values)


@pytest.mark.parametrize(
    "values",
    [
        [True, 1, 1.0],
        [1.0, 1, True, True, 1],
        [0.0, -0.0],
        [-0.0, 0.0, 0.0, -0.0, None, -0.0],
        [0.0, 5.0, -0.0],
        [_NAN, _NAN],  # one object twice: a dict finds it, == does not
        [float("nan"), float("nan")],
        [None, _NAN, None, _NAN, 1, _NAN],
        [False, 0, 0.0, -0.0],
    ],
    ids=repr,
)
def test_hash_equal_doubles_stay_themselves(values):
    """``True == 1 == 1.0``, ``0.0 == -0.0`` and a NaN that is not even
    ``==`` itself: one dictionary entry or run where the oracle makes one,
    and never another cell's bytes in PLAIN."""
    _assert_equivalent(ColumnSchema("c", "double"), values)


def test_negative_zero_survives_plain():
    column = ColumnSchema("c", "double")
    decoded = decode(column, "plain", shipped.encode_plain(column, [0.0, -0.0]))
    assert [math.copysign(1, value) for value in decoded] == [1.0, -1.0]


@pytest.mark.parametrize("position", [0, 1, 4])
def test_a_bool_in_an_int_column_is_rejected_wherever_it_sits(position):
    """``True == 1`` and hashes alike: no per-distinct shortcut may let the
    bool ride on an int already seen in the chunk."""
    cells = [1, 1, 0, 1, 1]
    cells[position] = True
    schema = TableSchema([ColumnSchema("n", "int")])
    with pytest.raises(SchemaError, match="expects int, got bool"):
        write_table(
            SimulatedHdfs(num_datanodes=1), "/t", schema, [(cell,) for cell in cells]
        )
