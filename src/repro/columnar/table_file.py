"""Columnar table files over the simulated HDFS (mini-Parquet).

File layout (all primitives from :mod:`repro.columnar.binio`)::

    magic "RCF1"
    header: uvarint column_count, then per column: name | type
    uvarint row_group_count
    row groups, each:
        uvarint row_count
        per column: uvarint encoding-id | compression flag byte
                    | sized chunk bytes (zlib-deflated when flagged)

Readers can prune columns: chunks of unselected columns are skipped without
decoding (their byte ranges are length-prefixed). This models Parquet's
column pruning and is what makes the wide Property Table cheap to scan for
star sub-queries touching few predicates. Chunk payloads are additionally
zlib-compressed when that shrinks them, playing the role of Parquet's
page-level Snappy/GZIP compression.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from ..errors import EncodingError, SchemaError, ValidationError
from ..hdfs.filesystem import SimulatedHdfs
from .binio import ByteReader, ByteWriter
from .encoding import ENCODINGS, decode, encode_best
from .schema import ColumnSchema, TableSchema, validate_column

_MAGIC = b"RCF1"
_ENCODING_IDS = {name: i for i, name in enumerate(ENCODINGS)}
_ENCODING_NAMES = {i: name for name, i in _ENCODING_IDS.items()}

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

    def bytes_for_column(self, name: str) -> int:
        return sum(chunk.encoded_bytes for chunk in self.chunks if chunk.column == name)

    def encodings_used(self) -> set[str]:
        return {chunk.encoding for chunk in self.chunks}


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


def _read_schema(reader: ByteReader) -> TableSchema:
    count = reader.read_uvarint()
    return TableSchema(
        [ColumnSchema(reader.read_string(), reader.read_string()) for _ in range(count)]
    )


def _open(data: bytes) -> tuple[TableSchema, ByteReader]:
    if data[: len(_MAGIC)] != _MAGIC:
        raise EncodingError("not a columnar table file (bad magic)")
    reader = ByteReader(data, offset=len(_MAGIC))
    return _read_schema(reader), reader


def read_schema(hdfs: SimulatedHdfs, path: str) -> TableSchema:
    """Read only the schema header of a columnar file."""
    schema, _ = _open(hdfs.read(path))
    return schema


def read_table(
    hdfs: SimulatedHdfs, path: str, columns: Sequence[str] | None = None
) -> tuple[TableSchema, list[tuple]]:
    """Read a columnar file, optionally pruning to ``columns``.

    Returns the (possibly pruned) schema and the rows as tuples in the pruned
    schema's order. Unselected chunks are skipped without decoding.
    """
    schema, reader = _open(hdfs.read(path))
    wanted = list(schema.names) if columns is None else list(columns)
    pruned = schema.select(wanted)
    wanted_set = set(wanted)
    rows: list[tuple] = []
    group_count = reader.read_uvarint()
    for _ in range(group_count):
        row_count = reader.read_uvarint()
        decoded: dict[str, list] = {}
        for column in schema.columns:
            encoding_id = reader.read_uvarint()
            compression = reader.read_bytes(1)
            chunk = reader.read_sized()
            if column.name not in wanted_set:
                continue
            encoding = _ENCODING_NAMES.get(encoding_id)
            if encoding is None:
                raise EncodingError(f"unknown encoding id {encoding_id}")
            if compression == b"\x01":
                chunk = zlib.decompress(chunk)
            values = decode(column, encoding, chunk)
            if len(values) != row_count:
                raise EncodingError(
                    f"chunk of {column.name!r} has {len(values)} values, "
                    f"expected {row_count}"
                )
            decoded[column.name] = values
        for row_index in range(row_count):
            rows.append(tuple(decoded[name][row_index] for name in wanted))
    return pruned, rows


def file_statistics(hdfs: SimulatedHdfs, path: str) -> FileStatistics:
    """Recompute :class:`FileStatistics` from a stored file."""
    data = hdfs.read(path)
    schema, reader = _open(data)
    group_count = reader.read_uvarint()
    chunks: list[ChunkInfo] = []
    total_rows = 0
    for _ in range(group_count):
        row_count = reader.read_uvarint()
        total_rows += row_count
        for column in schema.columns:
            encoding_id = reader.read_uvarint()
            compression = reader.read_bytes(1)
            chunk = reader.read_sized()
            stored_size = len(chunk)
            if compression == b"\x01":
                chunk = zlib.decompress(chunk)
            values = decode(column, _ENCODING_NAMES[encoding_id], chunk)
            chunks.append(
                ChunkInfo(
                    column=column.name,
                    encoding=_ENCODING_NAMES[encoding_id],
                    encoded_bytes=stored_size,
                    num_values=len(values),
                    null_count=sum(1 for v in values if v is None),
                )
            )
    return FileStatistics(
        row_count=total_rows,
        row_groups=group_count,
        total_bytes=len(data),
        chunks=tuple(chunks),
    )
