"""The columnar file reader, kept as the test oracle for the writers.

Nothing in the package reads a stored table back — scans read the catalog's
resident column batches — so the decoders live here, next to
``reference_encoders.py``: a file written by ``repro.columnar.write_table``
must decode back to the rows it was given, and its recomputed statistics
must equal the ``FileStatistics`` the writer returned.
"""

from __future__ import annotations

import struct
import zlib

from repro.columnar.encoding import DICTIONARY, ENCODINGS, PLAIN, RLE
from repro.columnar.schema import ColumnSchema, TableSchema
from repro.columnar.table_file import ChunkInfo, FileStatistics
from repro.errors import EncodingError
from repro.hdfs.filesystem import SimulatedHdfs

_MAGIC = b"RCF1"
_ENCODING_NAMES = dict(enumerate(ENCODINGS))

_NULL = 0
_PRESENT = 1


class ByteReader:
    """Cursor-based reader matching ``repro.columnar.binio.ByteWriter``."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        self._pos = offset

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def read_bytes(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise EncodingError("unexpected end of encoded data")
        data = self._data[self._pos : self._pos + count]
        self._pos += count
        return data

    def read_uvarint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self._pos >= len(self._data):
                raise EncodingError("truncated varint")
            byte = self._data[self._pos]
            self._pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise EncodingError("varint too long")

    def read_varint(self) -> int:
        raw = self.read_uvarint()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

    def read_string(self) -> str:
        length = self.read_uvarint()
        return self.read_bytes(length).decode("utf-8")

    def read_double(self) -> float:
        return struct.unpack("<d", self.read_bytes(8))[0]

    def read_sized(self) -> bytes:
        return self.read_bytes(self.read_uvarint())


# -- cells and chunks -----------------------------------------------------------


def _read_scalar(reader: ByteReader, type_name: str):
    if type_name == "string":
        return reader.read_string()
    if type_name == "int":
        return reader.read_varint()
    if type_name == "double":
        return reader.read_double()
    if type_name == "bool":
        return reader.read_bytes(1) == b"\x01"
    raise EncodingError(f"unknown scalar type {type_name!r}")


def read_value(reader: ByteReader, column: ColumnSchema):
    """Read one nullable cell written as a tagged unit."""
    tag = reader.read_bytes(1)[0]
    if tag == _NULL:
        return None
    if tag != _PRESENT:
        raise EncodingError(f"bad value tag {tag}")
    if column.is_list:
        count = reader.read_uvarint()
        return [_read_scalar(reader, column.element_type) for _ in range(count)]
    return _read_scalar(reader, column.type)


def decode_plain(column: ColumnSchema, data: bytes) -> list:
    reader = ByteReader(data)
    count = reader.read_uvarint()
    return [read_value(reader, column) for _ in range(count)]


def decode_rle(column: ColumnSchema, data: bytes) -> list:
    reader = ByteReader(data)
    total = reader.read_uvarint()
    values: list = []
    while len(values) < total:
        run = reader.read_uvarint()
        value = read_value(reader, column)
        if isinstance(value, list):
            values.extend(list(value) for _ in range(run))
        else:
            values.extend([value] * run)
    if len(values) != total:
        raise EncodingError("RLE run lengths do not sum to the declared count")
    return values


def decode_dictionary(column: ColumnSchema, data: bytes) -> list:
    reader = ByteReader(data)
    total = reader.read_uvarint()
    dict_size = reader.read_uvarint()
    dictionary = [read_value(reader, column) for _ in range(dict_size)]
    values: list = []
    while len(values) < total:
        run = reader.read_uvarint()
        code = reader.read_uvarint()
        if code >= dict_size:
            raise EncodingError(f"dictionary index {code} out of range")
        value = dictionary[code]
        if isinstance(value, list):
            values.extend(list(value) for _ in range(run))
        else:
            values.extend([value] * run)
    if len(values) != total:
        raise EncodingError("dictionary run lengths do not sum to the declared count")
    return values


_DECODERS = {PLAIN: decode_plain, RLE: decode_rle, DICTIONARY: decode_dictionary}


def decode(column: ColumnSchema, encoding: str, data: bytes) -> list:
    """Decode a chunk produced by any of the encoders."""
    decoder = _DECODERS.get(encoding)
    if decoder is None:
        raise EncodingError(f"unknown encoding {encoding!r}")
    return decoder(column, data)


# -- table files ------------------------------------------------------------------


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


def _row_groups(schema: TableSchema, reader: ByteReader):
    """Per row group: its row count and, per column in schema order, the
    ``(column, encoding, stored chunk bytes, decoded values)``."""
    for _ in range(reader.read_uvarint()):
        row_count = reader.read_uvarint()
        chunks = []
        for column in schema.columns:
            encoding_id = reader.read_uvarint()
            compression = reader.read_bytes(1)
            stored = reader.read_sized()
            encoding = _ENCODING_NAMES.get(encoding_id)
            if encoding is None:
                raise EncodingError(f"unknown encoding id {encoding_id}")
            chunk = zlib.decompress(stored) if compression == b"\x01" else stored
            values = decode(column, encoding, chunk)
            if len(values) != row_count:
                raise EncodingError(
                    f"chunk of {column.name!r} has {len(values)} values, "
                    f"expected {row_count}"
                )
            chunks.append((column, encoding, stored, values))
        yield row_count, chunks


def read_schema(hdfs: SimulatedHdfs, path: str) -> TableSchema:
    """Read only the schema header of a columnar file."""
    schema, _ = _open(hdfs.read(path))
    return schema


def read_table(hdfs: SimulatedHdfs, path: str) -> tuple[TableSchema, list[tuple]]:
    """Read a columnar file back: its schema and its rows as tuples."""
    schema, reader = _open(hdfs.read(path))
    rows: list[tuple] = []
    for _, chunks in _row_groups(schema, reader):
        rows.extend(zip(*(values for _, _, _, values in chunks)))
    return schema, rows


def file_statistics(hdfs: SimulatedHdfs, path: str) -> FileStatistics:
    """Recompute :class:`FileStatistics` from a stored file."""
    data = hdfs.read(path)
    schema, reader = _open(data)
    infos: list[ChunkInfo] = []
    row_groups = 0
    total_rows = 0
    for row_count, chunks in _row_groups(schema, reader):
        row_groups += 1
        total_rows += row_count
        infos.extend(
            ChunkInfo(
                column=column.name,
                encoding=encoding,
                encoded_bytes=len(stored),
                num_values=len(values),
                null_count=sum(1 for v in values if v is None),
            )
            for column, encoding, stored, values in chunks
        )
    return FileStatistics(
        row_count=total_rows,
        row_groups=row_groups,
        total_bytes=len(data),
        chunks=tuple(infos),
    )
