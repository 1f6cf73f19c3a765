"""Table catalog: registered, partitioned, storage-backed tables.

A :class:`StoredTable` couples the :class:`ColumnarData` a loader
registered — the one resident form of the table, read by scans as it is —
with the columnar-file statistics used for IO accounting.
Loaders register tables here; scans resolve them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..columnar.schema import TableSchema
from ..columnar.table_file import FileStatistics
from ..errors import CatalogError
from ..vector import ColumnBatch
from .data import ColumnarData


@dataclass
class StoredTable:
    """One catalog entry.

    Attributes:
        name: catalog-unique table name.
        data: the stored batches, one per partition, every one unselected
            (``sel is None``): the executor's cross-query memos (filter
            selections, join build indexes, explode outputs, per-row byte
            vectors) are kept on unselected batches only, so a stored
            selection view would silently recompute them on every query.
        file_stats: statistics of the backing columnar file, when the table
            was persisted; drives byte-accurate scan costs and Table 1 sizes.
        hdfs_path: backing file location, when persisted.
        column_views: zero-copy column subsets of ``data`` by projected
            column tuple. Catalog tables are immutable once registered, so
            repeated scans share one view — and the memos living on its
            batches.
    """

    name: str
    data: ColumnarData
    file_stats: FileStatistics | None = None
    hdfs_path: str | None = None
    column_views: dict = field(default_factory=dict, repr=False)

    @property
    def schema(self) -> TableSchema:
        """Schema of the stored data."""
        return self.data.schema

    @property
    def row_count(self) -> int:
        """Rows in the stored table."""
        return self.data.num_rows

    def scan(self, columns: tuple[str, ...] | None = None) -> ColumnarData:
        """What a scan of ``columns`` reads: the stored batches themselves,
        or the (cached) view sharing just those column vectors."""
        if columns is None:
            return self.data
        view = self.column_views.get(columns)
        if view is None:
            indexes = [self.schema.index_of(name) for name in columns]
            batches = [
                ColumnBatch(tuple(batch.columns[i] for i in indexes), batch.length)
                for batch in self.data.batches
            ]
            partitioner = self.data.partitioner
            if partitioner is not None and not set(partitioner.columns) <= set(columns):
                partitioner = None
            view = ColumnarData(self.schema.select(list(columns)), batches, partitioner)
            self.column_views[columns] = view
        return view

    def scan_bytes(self, columns: tuple[str, ...] | None = None) -> int:
        """Bytes a scan of ``columns`` must read (column pruning applied).

        Falls back to an in-memory estimate when the table was never
        persisted to a columnar file.
        """
        if self.file_stats is None:
            if columns is None:
                return self.data.estimated_bytes()
            fraction = max(1, len(columns)) / max(1, len(self.schema))
            return int(self.data.estimated_bytes() * fraction)
        if columns is None:
            return sum(chunk.encoded_bytes for chunk in self.file_stats.chunks)
        wanted = set(columns)
        return sum(
            chunk.encoded_bytes
            for chunk in self.file_stats.chunks
            if chunk.column in wanted
        )


class Catalog:
    """Name → :class:`StoredTable` registry."""

    def __init__(self):
        self._tables: dict[str, StoredTable] = {}

    def register(self, table: StoredTable, replace: bool = False) -> None:
        """Add a table.

        Raises:
            CatalogError: when the name is taken and ``replace`` is false.
        """
        if table.name in self._tables and not replace:
            raise CatalogError(f"table already registered: {table.name!r}")
        self._tables[table.name] = table

    def get(self, name: str) -> StoredTable:
        """Look up a table.

        Raises:
            CatalogError: for an unknown name.
        """
        table = self._tables.get(name)
        if table is None:
            raise CatalogError(f"unknown table {name!r}")
        return table

    def has(self, name: str) -> bool:
        """Whether a table with this name is registered."""
        return name in self._tables

    def drop(self, name: str) -> None:
        """Remove a table.

        Raises:
            CatalogError: for an unknown name.
        """
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name]

    def names(self) -> list[str]:
        """All registered table names, sorted."""
        return sorted(self._tables)

    def total_stored_bytes(self) -> int:
        """Sum of backing-file sizes over all persisted tables."""
        return sum(
            table.file_stats.total_bytes
            for table in self._tables.values()
            if table.file_stats is not None
        )

    def __len__(self) -> int:
        return len(self._tables)
