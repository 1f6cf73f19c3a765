"""Column encodings: PLAIN, RLE, and DICTIONARY.

The paper (§3.1) leans on Parquet's run-length encoding to make the
NULL-heavy Property Table cheap to store: a long run of NULLs collapses to a
single (count, NULL) pair. We reproduce that mechanism:

- ``PLAIN`` — values written one after another.
- ``RLE`` — (run-length, value) pairs; ideal for NULL runs and low-cardinality
  columns.
- ``DICTIONARY`` — distinct values written once, then RLE-coded indexes;
  ideal for repetitive strings such as IRIs sharing a namespace.

The chunk writer tries all three and keeps the smallest, like Parquet's
encoder fallback. The three share one analysis of the chunk
(:func:`_analyse`): which cells are equal, and each cell's unit bytes —
built once per distinct cell where equal cells have equal bytes — after
which an encoding is a ``b"".join`` over units, run lengths and codes.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, compress, islice
from operator import ne, sub

from ..errors import EncodingError
from .binio import SMALL_UVARINTS, uvarint_bytes, varint_bytes
from .schema import ColumnSchema

PLAIN = "plain"
RLE = "rle"
DICTIONARY = "dictionary"

ENCODINGS = (PLAIN, RLE, DICTIONARY)

#: Tag bytes for nullable value units.
_NULL = 0
_PRESENT = 1
_NULL_UNIT = bytes([_NULL])
_PRESENT_UNIT = bytes([_PRESENT])


# -- single-value units -------------------------------------------------------


def _scalar_bytes(type_name: str, value) -> bytes:
    if type_name == "string":
        data = value.encode("utf-8")
        return uvarint_bytes(len(data)) + data
    if type_name == "int":
        return varint_bytes(value)
    if type_name == "double":
        return struct.pack("<d", float(value))
    if type_name == "bool":
        return b"\x01" if value else b"\x00"
    raise EncodingError(f"unknown scalar type {type_name!r}")


def value_bytes(column: ColumnSchema, value) -> bytes:
    """One nullable cell (scalar or list) as a tagged unit."""
    if value is None:
        return _NULL_UNIT
    if not column.is_list:
        return _PRESENT_UNIT + _scalar_bytes(column.type, value)
    element_type = column.element_type
    return b"".join(
        [_PRESENT_UNIT, uvarint_bytes(len(value))]
        + [_scalar_bytes(element_type, element) for element in value]
    )


# -- one pass over a chunk -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _Chunk:
    """What every encoding of one column chunk is assembled from.

    Attributes:
        keys: the cells, lists frozen to tuples so they hash and compare.
        units: each cell's :func:`value_bytes`.
        codes: each cell's dictionary code — first-seen order, cells that
            are one ``dict`` key share a code.
        entry_units: :func:`value_bytes` of each code's first-seen cell.
    """

    keys: Sequence
    units: list[bytes]
    codes: list[int]
    entry_units: list[bytes]


def _analyse(column: ColumnSchema, values: Sequence) -> _Chunk:
    keys = values
    if column.is_list:
        keys = [tuple(value) if isinstance(value, list) else value for value in values]
    code_of = {key: code for code, key in enumerate(dict.fromkeys(keys))}
    entry_units = [value_bytes(column, key) for key in code_of]
    codes = list(map(code_of.__getitem__, keys))
    if column.element_type == "string":
        # Strings that are one dict key are the same bytes: a distinct
        # cell's unit is built once, however often the cell repeats.
        units = list(map(entry_units.__getitem__, codes))
    else:
        # Numbers are not: 0.0 == -0.0 and True == 1 == 1.0 share a
        # dictionary entry (the first seen) but each is stored as itself
        # by PLAIN and RLE, so their units are built cell by cell.
        units = [value_bytes(column, key) for key in keys]
    return _Chunk(keys, units, codes, entry_units)


def _run_starts(cells: Sequence) -> list[int]:
    """Index of the first cell of every run of adjacent ``==`` cells.

    ``operator.ne`` and not ``itertools.groupby``: the latter takes an
    object to equal itself, which a NaN does not.
    """
    if not cells:
        return []
    return [0, *compress(range(1, len(cells)), map(ne, cells, islice(cells, 1, None)))]


def _run_lengths(starts: list[int], count: int) -> Iterable[int]:
    return map(sub, chain(islice(starts, 1, None), [count]), starts)


def _uvarints(values: Iterable[int]) -> Iterable[bytes]:
    values = list(values)
    if max(values, default=0) < len(SMALL_UVARINTS):
        return map(SMALL_UVARINTS.__getitem__, values)
    return map(uvarint_bytes, values)


def _interleave(first: Iterable[bytes], second: Iterable[bytes]) -> Iterable[bytes]:
    return chain.from_iterable(zip(first, second))


# -- encoders -------------------------------------------------------------------


def _plain(chunk: _Chunk) -> bytes:
    return uvarint_bytes(len(chunk.units)) + b"".join(chunk.units)


def _rle(chunk: _Chunk) -> bytes:
    count = len(chunk.units)
    starts = _run_starts(chunk.keys)
    lengths = _uvarints(_run_lengths(starts, count))
    run_units = map(chunk.units.__getitem__, starts)
    return uvarint_bytes(count) + b"".join(_interleave(lengths, run_units))


def _dictionary(chunk: _Chunk) -> bytes:
    count = len(chunk.codes)
    starts = _run_starts(chunk.codes)
    lengths = _uvarints(_run_lengths(starts, count))
    run_codes = _uvarints(map(chunk.codes.__getitem__, starts))
    return b"".join(
        chain(
            [uvarint_bytes(count), uvarint_bytes(len(chunk.entry_units))],
            chunk.entry_units,
            _interleave(lengths, run_codes),
        )
    )


def encode_plain(column: ColumnSchema, values: Sequence) -> bytes:
    """Encode values one after another."""
    return _plain(_analyse(column, values))


def encode_rle(column: ColumnSchema, values: Sequence) -> bytes:
    """Encode values as (run-length, value) pairs."""
    return _rle(_analyse(column, values))


def encode_dictionary(column: ColumnSchema, values: Sequence) -> bytes:
    """Encode a dictionary of distinct values plus RLE-coded indexes.

    NULL is a regular dictionary entry, which keeps the format uniform.
    """
    return _dictionary(_analyse(column, values))


_ENCODERS = {PLAIN: _plain, RLE: _rle, DICTIONARY: _dictionary}


def encode_best(
    column: ColumnSchema, values: Sequence, allowed: tuple[str, ...] = ENCODINGS
) -> tuple[str, bytes]:
    """Encode with every allowed encoding and keep the smallest result."""
    if not allowed:
        raise EncodingError("at least one encoding must be allowed")
    chunk = _analyse(column, values)
    best_name = ""
    best_data = b""
    for name in allowed:
        data = _ENCODERS[name](chunk)
        if not best_name or len(data) < len(best_data):
            best_name, best_data = name, data
    return best_name, best_data
