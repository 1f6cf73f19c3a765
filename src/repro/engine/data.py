"""Partitioned in-memory datasets and row-size estimation.

Two dataset shapes share one surface (``schema`` / ``partitioner`` /
``num_partitions`` / ``num_rows`` / ``all_rows`` / ``is_partitioned_on`` /
``estimated_bytes``): :class:`PartitionedData` — a schema plus a list of
partitions (lists of row tuples), the catalog's stored form — and
:class:`ColumnarData` — one :class:`~repro.vector.ColumnBatch` per
partition, what every physical operator consumes and produces. Both carry
an optional :class:`HashPartitioner` describing how rows were placed.
Partitioner awareness lets the join operator skip a shuffle when both sides
are already hash-partitioned on the join keys with the same partition
count — the engine-level analogue of co-located joins.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..columnar.schema import TableSchema
from ..errors import PlanError
from ..rdf.dictionary import TERM_ID_BASE, default_dictionary
from ..vector import ColumnBatch, batch_bytes


@dataclass(frozen=True)
class HashPartitioner:
    """Rows are placed by ``hash(key columns) % num_partitions``."""

    columns: tuple[str, ...]
    num_partitions: int

    def partition_for(self, key: tuple) -> int:
        """Partition index a row with this key hashes to."""
        return stable_hash(key) % self.num_partitions


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


class PartitionedData:
    """A schema plus partitioned rows, the engine's physical dataset."""

    def __init__(
        self,
        schema: TableSchema,
        partitions: list[list[tuple]],
        partitioner: HashPartitioner | None = None,
    ):
        if not partitions:
            partitions = [[]]
        if partitioner is not None and partitioner.num_partitions != len(partitions):
            raise PlanError(
                "partitioner partition count does not match the partition list"
            )
        self.schema = schema
        self.partitions = partitions
        self.partitioner = partitioner
        # Partitions are immutable after construction (operators always
        # build fresh partition lists), so sizing is computed once. Any
        # code that does replace the payload in place must call
        # invalidate_size_cache(), or the cost model and the PV205
        # broadcast-threshold checks would keep pricing the old payload.
        self._num_rows: int | None = None
        self._estimated_bytes: int | None = None

    def invalidate_size_cache(self) -> None:
        """Drop the memoized row/byte counts after a payload replacement."""
        self._num_rows = None
        self._estimated_bytes = None

    @property
    def num_partitions(self) -> int:
        """How many partitions the data is split into."""
        return len(self.partitions)

    @property
    def num_rows(self) -> int:
        """Total rows across all partitions (cached)."""
        if self._num_rows is None:
            self._num_rows = sum(len(partition) for partition in self.partitions)
        return self._num_rows

    def all_rows(self) -> list[tuple]:
        """Gather every row (driver-side collect)."""
        rows: list[tuple] = []
        for partition in self.partitions:
            rows.extend(partition)
        return rows

    def is_partitioned_on(self, columns: tuple[str, ...]) -> bool:
        """Whether rows are hash-placed by exactly these columns."""
        return self.partitioner is not None and self.partitioner.columns == columns

    def estimated_bytes(self) -> int:
        """Rough in-flight size: what a shuffle of this dataset would move.

        Memoized — the join planner consults both sides of every join, and
        without the cache each consultation re-walked every cell.
        """
        if self._estimated_bytes is None:
            total = 0
            for partition in self.partitions:
                for row in partition:
                    total += estimate_row_bytes(row)
            self._estimated_bytes = total
        return self._estimated_bytes


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
        # Like PartitionedData, batches are immutable after construction —
        # operators always build fresh batch lists (or selection views) —
        # so sizing is computed once; see invalidate_size_cache().
        self._num_rows: int | None = None
        self._estimated_bytes: int | None = None

    @classmethod
    def from_partitioned(cls, data: PartitionedData) -> "ColumnarData":
        """Transpose a row dataset into batches, carrying its size memos.

        Raises:
            PlanError: when the source's memoized row count disagrees with
                the rows actually present — i.e. someone replaced the
                payload without ``invalidate_size_cache()``.
        """
        width = len(data.schema.names)
        batches = [ColumnBatch.from_rows(width, part) for part in data.partitions]
        result = cls(data.schema, batches, data.partitioner)
        if data._num_rows is not None:
            actual = sum(batch.num_rows for batch in batches)
            if actual != data._num_rows:
                raise PlanError(
                    "stale PartitionedData size memo: the payload changed "
                    "without invalidate_size_cache()"
                )
        result._num_rows = data._num_rows
        result._estimated_bytes = data._estimated_bytes
        return result

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
        """Shuffle-size estimate: :func:`estimate_row_bytes` summed over
        the live rows, priced through each batch's cached byte vector."""
        if self._estimated_bytes is None:
            self._estimated_bytes = sum(
                batch_bytes(batch) for batch in self.batches
            )
        return self._estimated_bytes

    def invalidate_size_cache(self) -> None:
        """Drop the memoized sizes after a payload replacement."""
        self._num_rows = None
        self._estimated_bytes = None


def estimate_row_bytes(row: tuple) -> int:
    """Approximate serialized size of one row (shuffle accounting).

    Dictionary term IDs are charged at their *decoded* serialization length
    — what the emulated cluster would actually move — so the cost model's
    shuffle totals and broadcast-vs-shuffle decisions match string-cell
    execution exactly (the paper figures must not change because cells got
    smaller in this process).
    """
    lengths = default_dictionary().decoded_lengths
    total = 8  # framing
    for value in row:
        if type(value) is int:
            # Term IDs charge their decoded text; sub-base ints are counts.
            total += lengths[value - TERM_ID_BASE] + 4 if value >= TERM_ID_BASE else 8
        elif value is None:
            total += 1
        elif isinstance(value, str):
            total += len(value) + 4
        elif isinstance(value, (list, tuple)):
            total += 4
            for element in value:
                if type(element) is int and element >= TERM_ID_BASE:
                    total += lengths[element - TERM_ID_BASE] + 4
                elif isinstance(element, str):
                    total += len(element) + 4
                else:
                    total += 8
        else:
            total += 8
    return total


def repartition_by_key(
    rows_by_partition: list[list[tuple]],
    key_indexes: list[int],
    partitioner: HashPartitioner,
) -> list[list[tuple]]:
    """Hash-repartition rows by the given key columns (the shuffle write)."""
    output: list[list[tuple]] = [[] for _ in range(partitioner.num_partitions)]
    num_partitions = partitioner.num_partitions
    if len(key_indexes) == 1:
        # Single-key shuffles dominate SPARQL joins; hash the bare cell with
        # the same per-part mixing as ``stable_hash`` (a one-element key is
        # just its part's hash masked to 63 bits), skipping the key tuple.
        index = key_indexes[0]
        crc32 = zlib.crc32
        for partition in rows_by_partition:
            for row in partition:
                part = row[index]
                if isinstance(part, int):
                    h = _mix_int(part) & 0x7FFFFFFFFFFFFFFF
                elif isinstance(part, str):
                    h = crc32(part.encode("utf-8", "surrogatepass"))
                else:
                    h = crc32(repr(part).encode("utf-8", "surrogatepass"))
                output[h % num_partitions].append(row)
        return output
    for partition in rows_by_partition:
        for row in partition:
            key = tuple(row[i] for i in key_indexes)
            output[partitioner.partition_for(key)].append(row)
    return output


def partition_evenly(rows: list[tuple], num_partitions: int) -> list[list[tuple]]:
    """Round-robin rows into ``num_partitions`` (a balanced, unkeyed layout)."""
    if num_partitions <= 0:
        raise PlanError("num_partitions must be positive")
    output: list[list[tuple]] = [[] for _ in range(num_partitions)]
    for index, row in enumerate(rows):
        output[index % num_partitions].append(row)
    return output


def partition_by_hash(
    rows: list[tuple],
    schema: TableSchema,
    columns: tuple[str, ...],
    num_partitions: int,
) -> PartitionedData:
    """Hash-partition rows on ``columns`` (used by loaders, e.g. the PT's
    subject partitioning from paper §3.1)."""
    partitioner = HashPartitioner(columns=columns, num_partitions=num_partitions)
    key_indexes = [schema.index_of(name) for name in columns]
    partitions = repartition_by_key([rows], key_indexes, partitioner)
    return PartitionedData(schema, partitions, partitioner)
