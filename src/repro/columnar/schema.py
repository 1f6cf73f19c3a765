"""Schemas for columnar tables.

The Property Table needs exactly what Parquet gives Jena-style stores: nullable
scalar columns plus *list* columns for multi-valued predicates (paper §3.1).
Supported column types:

- ``string``, ``int``, ``double``, ``bool`` — nullable scalars
- ``list<string>``, ``list<int>`` — nullable lists of scalars
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain

from ..errors import SchemaError

SCALAR_TYPES = ("string", "int", "double", "bool")
LIST_TYPES = ("list<string>", "list<int>")
ALL_TYPES = SCALAR_TYPES + LIST_TYPES


@dataclass(frozen=True, slots=True)
class ColumnSchema:
    """One column: name plus logical type. All columns are nullable."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in ALL_TYPES:
            raise SchemaError(f"unknown column type {self.type!r} for {self.name!r}")
        if not self.name:
            raise SchemaError("column name must be non-empty")

    @property
    def is_list(self) -> bool:
        return self.type in LIST_TYPES

    @property
    def element_type(self) -> str:
        """The scalar type of a list column's elements (or the type itself)."""
        if self.is_list:
            return self.type[len("list<") : -1]
        return self.type


class TableSchema:
    """An ordered set of uniquely named columns."""

    def __init__(self, columns: list[ColumnSchema] | tuple[ColumnSchema, ...]):
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {duplicates}")
        self.columns: tuple[ColumnSchema, ...] = tuple(columns)
        self._names: tuple[str, ...] = tuple(names)
        self._by_name = {column.name: i for i, column in enumerate(self.columns)}

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __eq__(self, other) -> bool:
        return isinstance(other, TableSchema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def column(self, name: str) -> ColumnSchema:
        """Look up a column by name.

        Raises:
            SchemaError: for an unknown column.
        """
        index = self._by_name.get(name)
        if index is None:
            raise SchemaError(f"unknown column {name!r}; have {list(self.names)}")
        return self.columns[index]

    def index_of(self, name: str) -> int:
        """Positional index of a column (raises SchemaError when unknown)."""
        index = self._by_name.get(name)
        if index is None:
            raise SchemaError(f"unknown column {name!r}; have {list(self.names)}")
        return index

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def select(self, names: list[str] | tuple[str, ...]) -> "TableSchema":
        """A new schema containing only ``names``, in the given order."""
        return TableSchema([self.column(name) for name in names])

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.name}:{c.type}" for c in self.columns)
        return f"TableSchema({inner})"


def validate_value(column: ColumnSchema, value) -> None:
    """Check one cell value against a column schema.

    Raises:
        SchemaError: when the value does not fit the column type.
    """
    if value is None:
        return
    if column.is_list:
        if not isinstance(value, (list, tuple)):
            raise SchemaError(
                f"column {column.name!r} expects a list, got {type(value).__name__}"
            )
        for element in value:
            _validate_scalar(column.element_type, element, column.name)
        return
    _validate_scalar(column.type, value, column.name)


#: Per scalar type, the exact Python types :func:`_validate_scalar` accepts
#: (it also accepts their subclasses, bar ``bool`` for ``int``).
_EXACT_TYPES = {
    "string": {str},
    "int": {int},
    "double": {int, float, bool},
    "bool": {bool},
}


def validate_column(column: ColumnSchema, values: Sequence) -> None:
    """:func:`validate_value` for every cell of one column chunk.

    The chunk passes at once when the exact types of its cells (for a list
    column: of its list cells' elements) are all ones the column takes;
    only a chunk holding anything else is walked cell by cell, which raises
    for the first bad cell in row order.

    Raises:
        SchemaError: when a cell does not fit the column type.
    """
    if not _exactly_typed(column, values):
        for value in values:
            validate_value(column, value)


def _exactly_typed(column: ColumnSchema, values: Sequence) -> bool:
    expected = _EXACT_TYPES[column.element_type]
    kinds = set(map(type, values)) - {type(None)}
    if not column.is_list:
        return kinds <= expected
    if not kinds <= {list, tuple}:
        return False
    # filter(None, ...) also drops the empty lists, which hold nothing.
    return set(map(type, chain.from_iterable(filter(None, values)))) <= expected


def _validate_scalar(type_name: str, value, column_name: str) -> None:
    expected = {
        "string": str,
        "int": int,
        "double": (int, float),
        "bool": bool,
    }[type_name]
    if type_name == "int" and isinstance(value, bool):
        raise SchemaError(f"column {column_name!r} expects int, got bool")
    if not isinstance(value, expected):
        raise SchemaError(
            f"column {column_name!r} expects {type_name}, got {type(value).__name__}"
        )
