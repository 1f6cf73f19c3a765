"""Columnar storage (mini-Parquet): encodings, schemas, and table files."""

from .binio import ByteReader, ByteWriter
from .encoding import (
    DICTIONARY,
    ENCODINGS,
    PLAIN,
    RLE,
    decode,
    encode_best,
    encode_dictionary,
    encode_plain,
    encode_rle,
)
from .schema import ColumnSchema, TableSchema, validate_column, validate_value
from .table_file import (
    DEFAULT_ROW_GROUP_SIZE,
    ChunkInfo,
    FileStatistics,
    file_statistics,
    read_schema,
    read_table,
    write_table,
)

__all__ = [
    "ByteReader",
    "ByteWriter",
    "ChunkInfo",
    "ColumnSchema",
    "DEFAULT_ROW_GROUP_SIZE",
    "DICTIONARY",
    "ENCODINGS",
    "FileStatistics",
    "PLAIN",
    "RLE",
    "TableSchema",
    "decode",
    "encode_best",
    "encode_dictionary",
    "encode_plain",
    "encode_rle",
    "file_statistics",
    "read_schema",
    "read_table",
    "validate_column",
    "validate_value",
    "write_table",
]
