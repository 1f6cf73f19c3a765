"""The cell-by-cell column encoders, kept as the test oracle.

These are the encoders ``repro.columnar.encoding`` shipped before the load
path was rewritten to do per-chunk work in bulk, moved here unchanged: one
``ByteWriter`` call per cell, per encoder. They define the stored bytes; the
differential tests in ``test_encoder_equivalence.py`` require the shipped
encoders to reproduce them byte for byte.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

from repro.columnar.binio import ByteWriter
from repro.columnar.encoding import DICTIONARY, ENCODINGS, PLAIN, RLE
from repro.columnar.schema import ColumnSchema
from repro.errors import EncodingError

_NULL = 0
_PRESENT = 1


def write_double(writer: ByteWriter, value: float) -> None:
    """A little-endian IEEE 754 double (the only fixed-width scalar)."""
    writer.write_bytes(struct.pack("<d", value))


def _write_scalar(writer: ByteWriter, type_name: str, value) -> None:
    if type_name == "string":
        writer.write_string(value)
    elif type_name == "int":
        writer.write_varint(value)
    elif type_name == "double":
        write_double(writer, float(value))
    elif type_name == "bool":
        writer.write_bytes(b"\x01" if value else b"\x00")
    else:
        raise EncodingError(f"unknown scalar type {type_name!r}")


def write_value(writer: ByteWriter, column: ColumnSchema, value) -> None:
    """Write one nullable cell (scalar or list) as a tagged unit."""
    if value is None:
        writer.write_bytes(bytes([_NULL]))
        return
    writer.write_bytes(bytes([_PRESENT]))
    if column.is_list:
        writer.write_uvarint(len(value))
        for element in value:
            _write_scalar(writer, column.element_type, element)
    else:
        _write_scalar(writer, column.type, value)


def _hashable(value):
    """Lists are unhashable; freeze them for run/dictionary comparisons."""
    if isinstance(value, list):
        return tuple(value)
    return value


def _thaw(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def encode_plain(column: ColumnSchema, values: Sequence) -> bytes:
    """Encode values one after another."""
    writer = ByteWriter()
    writer.write_uvarint(len(values))
    for value in values:
        write_value(writer, column, value)
    return writer.getvalue()


def encode_rle(column: ColumnSchema, values: Sequence) -> bytes:
    """Encode values as (run-length, value) pairs."""
    writer = ByteWriter()
    writer.write_uvarint(len(values))
    index = 0
    while index < len(values):
        current = _hashable(values[index])
        run = 1
        while index + run < len(values) and _hashable(values[index + run]) == current:
            run += 1
        writer.write_uvarint(run)
        write_value(writer, column, values[index])
        index += run
    return writer.getvalue()


def encode_dictionary(column: ColumnSchema, values: Sequence) -> bytes:
    """Encode a dictionary of distinct values plus RLE-coded indexes.

    NULL is represented as dictionary index 0 reserved slot? No — NULL is a
    regular dictionary entry, which keeps the format uniform.
    """
    writer = ByteWriter()
    writer.write_uvarint(len(values))
    dictionary: dict = {}
    indexes: list[int] = []
    for value in values:
        key = _hashable(value)
        code = dictionary.get(key)
        if code is None:
            code = len(dictionary)
            dictionary[key] = code
        indexes.append(code)
    writer.write_uvarint(len(dictionary))
    for key in dictionary:
        write_value(writer, column, _thaw(key))
    # RLE over the index stream.
    position = 0
    while position < len(indexes):
        code = indexes[position]
        run = 1
        while position + run < len(indexes) and indexes[position + run] == code:
            run += 1
        writer.write_uvarint(run)
        writer.write_uvarint(code)
        position += run
    return writer.getvalue()


_ENCODERS = {PLAIN: encode_plain, RLE: encode_rle, DICTIONARY: encode_dictionary}


def encode_best(
    column: ColumnSchema, values: Sequence, allowed: tuple[str, ...] = ENCODINGS
) -> tuple[str, bytes]:
    """Encode with every allowed encoding and keep the smallest result."""
    if not allowed:
        raise EncodingError("at least one encoding must be allowed")
    best_name = ""
    best_data = b""
    for name in allowed:
        data = _ENCODERS[name](column, values)
        if not best_name or len(data) < len(best_data):
            best_name, best_data = name, data
    return best_name, best_data
