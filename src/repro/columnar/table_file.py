"""Columnar table files over the simulated HDFS (mini-Parquet).

File layout (all primitives from :mod:`repro.columnar.binio`)::

    magic "RCF1"
    header: uvarint column_count, then per column: name | type
    uvarint row_group_count
    row groups, each:
        uvarint row_count
        per column: uvarint encoding-id | compression flag byte
                    | sized chunk bytes (zlib-deflated when flagged)

Chunk payloads are additionally zlib-compressed when that shrinks them,
playing the role of Parquet's page-level Snappy/GZIP compression. The file
is written once, at load; the :class:`FileStatistics` the writer returns are
what scans are priced from, and nothing in the package reads the file back
(the test suite keeps a reader as the writer's oracle).
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..errors import SchemaError, ValidationError
from ..hdfs.filesystem import SimulatedHdfs
from .binio import ByteWriter
from .encoding import ENCODINGS, encode_best
from .schema import TableSchema, validate_column

_MAGIC = b"RCF1"
_ENCODING_IDS = {name: i for i, name in enumerate(ENCODINGS)}

#: Default rows per row group; small so laptop-scale tables still get several.
DEFAULT_ROW_GROUP_SIZE = 50_000


@dataclass(frozen=True)
class ChunkInfo:
    """Metadata of one encoded column chunk (for inspection and stats)."""

    column: str
    encoding: str
    encoded_bytes: int
    num_values: int
    null_count: int


@dataclass(frozen=True)
class FileStatistics:
    """Summary of an entire columnar file."""

    row_count: int
    row_groups: int
    total_bytes: int
    chunks: tuple[ChunkInfo, ...]


def write_table(
    hdfs: SimulatedHdfs,
    path: str,
    schema: TableSchema,
    rows: Sequence[tuple],
    row_group_size: int = DEFAULT_ROW_GROUP_SIZE,
    allowed_encodings: tuple[str, ...] = ENCODINGS,
    compress_pages: bool = True,
    preferred_node: int | None = None,
    overwrite: bool = False,
    stored_cells: Callable[[Sequence], Sequence] | None = None,
) -> FileStatistics:
    """Write rows (tuples matching the schema order) as a columnar file.

    A row group is transposed once; from there on the work is per column
    chunk: conversion, validation and encoding each see the whole chunk.

    Args:
        allowed_encodings: restrict the encoder (the encoding ablation uses
            ``("plain",)`` to measure what RLE buys the Property Table).
        compress_pages: zlib-deflate chunk payloads (Parquet's page
            compression); disable to measure raw encoding sizes.
        preferred_node: pin block placement, as a node-local writer would.
        stored_cells: maps one chunk's cells, as the caller holds them, to
            the cells to persist (the engine turns dictionary term IDs back
            into text here); validation sees its result.

    Raises:
        SchemaError: when a row has the wrong arity or a bad cell value.
    """
    if row_group_size <= 0:
        raise ValidationError("row_group_size must be positive")
    writer = ByteWriter()
    writer.write_bytes(_MAGIC)
    _write_schema(writer, schema)
    groups: list[Sequence[tuple]] = [
        rows[i : i + row_group_size] for i in range(0, len(rows), row_group_size)
    ]
    if not groups:
        groups = [[]]
    writer.write_uvarint(len(groups))
    chunk_infos: list[ChunkInfo] = []
    width = len(schema)
    for group in groups:
        writer.write_uvarint(len(group))
        for row in group:
            if len(row) != width:
                raise SchemaError(
                    f"row has {len(row)} cells but the schema has {width} columns"
                )
        chunks = zip(*group) if group else [()] * width
        for column, values in zip(schema.columns, chunks):
            if stored_cells is not None:
                values = stored_cells(values)
            validate_column(column, values)
            encoding, data = encode_best(column, values, allowed_encodings)
            writer.write_uvarint(_ENCODING_IDS[encoding])
            compressed = zlib.compress(data, level=6) if compress_pages else data
            if len(compressed) < len(data):
                writer.write_bytes(b"\x01")
                payload = compressed
            else:
                writer.write_bytes(b"\x00")
                payload = data
            writer.write_sized(payload)
            chunk_infos.append(
                ChunkInfo(
                    column=column.name,
                    encoding=encoding,
                    encoded_bytes=len(payload),
                    num_values=len(values),
                    null_count=values.count(None),
                )
            )
    payload = writer.getvalue()
    hdfs.write(path, payload, preferred_node=preferred_node, overwrite=overwrite)
    return FileStatistics(
        row_count=len(rows),
        row_groups=len(groups),
        total_bytes=len(payload),
        chunks=tuple(chunk_infos),
    )


def _write_schema(writer: ByteWriter, schema: TableSchema) -> None:
    writer.write_uvarint(len(schema))
    for column in schema.columns:
        writer.write_string(column.name)
        writer.write_string(column.type)
