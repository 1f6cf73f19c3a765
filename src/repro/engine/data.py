"""Partitioned in-memory datasets and the one hash-placement routine.

:class:`ColumnarData` — a schema plus one :class:`~repro.vector.ColumnBatch`
per partition — is the only dataset shape: the catalog stores it, every
physical operator consumes and produces it, and row tuples exist only at
the API edges (:meth:`ColumnarData.from_rows` in,
:meth:`ColumnarData.all_rows` out). A dataset carries an optional
:class:`HashPartitioner` describing how its rows were placed, and
:meth:`HashPartitioner.place` is the single routine that does the placing
— for table registration, shuffles and aggregate outputs alike — so a
shuffled dataset and a table hash-partitioned on the same keys agree on
every row's partition. That agreement lets the join operator skip the
shuffle when both sides are already partitioned on the join keys with the
same partition count — the engine-level analogue of co-located joins.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass

from ..columnar.schema import TableSchema
from ..errors import PlanError
from ..vector import ColumnBatch, batch_bytes


@dataclass(frozen=True)
class HashPartitioner:
    """Rows are placed by ``stable_hash(key columns) % num_partitions``."""

    columns: tuple[str, ...]
    num_partitions: int

    def place(self, key_columns: list[Sequence], live: Sequence[int]) -> list[list[int]]:
        """Selection vectors placing each ``live`` row index into its
        partition, in ``live`` order, by the cells of ``key_columns`` (the
        vectors holding ``columns``, in that order)."""
        num_partitions = self.num_partitions
        out: list[list[int]] = [[] for _ in range(num_partitions)]
        if len(key_columns) == 1:
            # Single-key placement dominates SPARQL joins; hash the bare cell
            # with the same per-part mixing as ``stable_hash`` (a one-element
            # key is just its part's hash masked to 63 bits), skipping the
            # key tuple.
            column = key_columns[0]
            crc32 = zlib.crc32
            for i in live:
                part = column[i]
                if isinstance(part, int):
                    h = _mix_int(part) & 0x7FFFFFFFFFFFFFFF
                elif isinstance(part, str):
                    h = crc32(part.encode("utf-8", "surrogatepass"))
                else:
                    h = crc32(repr(part).encode("utf-8", "surrogatepass"))
                out[h % num_partitions].append(i)
            return out
        for i in live:
            key = tuple(column[i] for column in key_columns)
            out[stable_hash(key) % num_partitions].append(i)
        return out


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix_int(value: int) -> int:
    """splitmix64 finalizer: scatters dense term IDs across partitions."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stable_hash(key: tuple) -> int:
    """Deterministic, process-independent hash for partitioning.

    Python's builtin ``hash`` on strings is salted per process, so strings
    go through ``zlib.crc32`` (C speed, stable across runs and machines)
    and integers — notably dictionary term IDs, which are dense and would
    otherwise land in consecutive partitions — through a splitmix64 mix.
    """
    value = 0
    for part in key:
        if isinstance(part, int):
            h = _mix_int(part)
        elif isinstance(part, str):
            h = zlib.crc32(part.encode("utf-8", "surrogatepass"))
        else:
            h = zlib.crc32(repr(part).encode("utf-8", "surrogatepass"))
        value = (value * 31 + h) & 0x7FFFFFFFFFFFFFFF
    return value


class ColumnarData:
    """Partitioned columnar dataset: one :class:`~repro.vector.ColumnBatch`
    per partition — the runtime representation every operator works on.

    Row tuples are only materialized at the edges (:meth:`all_rows`), which
    is where dictionary term IDs finally decode — late materialization.
    """

    __slots__ = ("schema", "batches", "partitioner", "_num_rows", "_estimated_bytes")

    def __init__(
        self,
        schema,
        batches: list[ColumnBatch],
        partitioner: HashPartitioner | None = None,
    ):
        if not batches:
            batches = [ColumnBatch(tuple([] for _ in schema.names), 0)]
        if partitioner is not None and partitioner.num_partitions != len(batches):
            raise PlanError(
                "partitioner partition count does not match the batch list"
            )
        self.schema = schema
        self.batches = batches
        self.partitioner = partitioner
        # Batches are immutable after construction — operators always build
        # fresh batch lists (or selection views) — so sizing is computed once.
        self._num_rows: int | None = None
        self._estimated_bytes: int | None = None

    @classmethod
    def from_rows(
        cls,
        schema: TableSchema,
        rows: list[tuple],
        num_partitions: int,
        partition_columns: tuple[str, ...] | None = None,
    ) -> "ColumnarData":
        """Partition row tuples into compacted (``sel is None``) batches.

        With ``partition_columns`` the rows are hash-placed on them and the
        result carries the partitioner (loaders use it for e.g. the PT's
        subject partitioning from paper §3.1); without, they are spread
        round-robin. Either way rows keep their input order inside each
        partition.
        """
        width = len(schema.names)
        if not partition_columns:
            parts = partition_evenly(rows, num_partitions)
            return cls(schema, [ColumnBatch.from_rows(width, part) for part in parts])
        partitioner = HashPartitioner(tuple(partition_columns), num_partitions)
        # Only the key columns are transposed to place the rows; each
        # partition then transposes its own rows, one partition at a time.
        key_indexes = [schema.index_of(name) for name in partition_columns]
        key_columns = [[row[i] for row in rows] for i in key_indexes]
        batches = [
            ColumnBatch.from_rows(width, [rows[i] for i in sel])
            for sel in partitioner.place(key_columns, range(len(rows)))
        ]
        return cls(schema, batches, partitioner)

    @property
    def num_partitions(self) -> int:
        """How many batches (partitions) the data is split into."""
        return len(self.batches)

    @property
    def num_rows(self) -> int:
        """Total live rows across all batches (cached)."""
        if self._num_rows is None:
            self._num_rows = sum(batch.num_rows for batch in self.batches)
        return self._num_rows

    def all_rows(self) -> list[tuple]:
        """Materialize every live row as a tuple (driver-side collect)."""
        rows: list[tuple] = []
        for batch in self.batches:
            rows.extend(batch.rows())
        return rows

    def concat(self) -> ColumnBatch:
        """All live rows as one compacted batch (driver-side gather)."""
        if len(self.batches) == 1:
            return self.batches[0].compact()
        columns: list[list] = [[] for _ in self.schema.names]
        total = 0
        for batch in self.batches:
            sel = batch.sel
            if sel is None:
                for j, column in enumerate(batch.columns):
                    columns[j].extend(column)
                total += batch.length
            else:
                for j, column in enumerate(batch.columns):
                    columns[j].extend(column[i] for i in sel)
                total += len(sel)
        return ColumnBatch(tuple(columns), total)

    def is_partitioned_on(self, columns: tuple[str, ...]) -> bool:
        """Whether rows are hash-placed by exactly these columns."""
        return self.partitioner is not None and self.partitioner.columns == columns

    def estimated_bytes(self) -> int:
        """Rough in-flight size — what a shuffle of this dataset would move —
        priced through each batch's cached per-row byte vector."""
        if self._estimated_bytes is None:
            self._estimated_bytes = sum(
                batch_bytes(batch) for batch in self.batches
            )
        return self._estimated_bytes


def partition_evenly(rows: list[tuple], num_partitions: int) -> list[list[tuple]]:
    """Round-robin rows into ``num_partitions`` (a balanced, unkeyed layout)."""
    if num_partitions <= 0:
        raise PlanError("num_partitions must be positive")
    output: list[list[tuple]] = [[] for _ in range(num_partitions)]
    for index, row in enumerate(rows):
        output[index % num_partitions].append(row)
    return output
