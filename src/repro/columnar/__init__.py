"""Columnar storage (mini-Parquet): encodings, schemas, and the table writer."""

from .binio import ByteWriter
from .encoding import (
    DICTIONARY,
    ENCODINGS,
    PLAIN,
    RLE,
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
    write_table,
)

__all__ = [
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
    "encode_best",
    "encode_dictionary",
    "encode_plain",
    "encode_rle",
    "validate_column",
    "validate_value",
    "write_table",
]
