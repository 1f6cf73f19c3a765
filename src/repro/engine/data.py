"""Partitioned in-memory datasets and the one hash-placement routine.

:class:`ColumnarData` — a schema, one :class:`~repro.vector.ColumnBatch`
and the physical row offsets (``bounds``) of its partitions — is the only
dataset shape: the catalog stores it, every physical operator consumes and
produces it, and row tuples exist only at the API edges
(:meth:`ColumnarData.from_rows` in, :meth:`ColumnarData.all_rows` out).
Rows are stored partition-major, so a partition is a row range, not a
physical copy: operators run each kernel once over the whole batch and
derive their output bounds with :func:`rebound`. A dataset carries an
optional :class:`HashPartitioner` describing how its rows were placed, and
:meth:`HashPartitioner.place` is the single routine that does the placing
— for table registration, shuffles and aggregate outputs alike — so a
shuffled dataset and a table hash-partitioned on the same keys agree on
every row's partition. That agreement lets the join operator skip the
shuffle when both sides are already partitioned on the join keys with the
same partition count — the engine-level analogue of co-located joins.
The narrow operators' partitioning rules (:func:`pruned_key`,
:func:`renamed_key`, :func:`exploded_key`, :func:`distinct_key`) live here
too, the one statement of each that execution and verification share.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, chain

from ..columnar.schema import TableSchema
from ..errors import PlanError
from ..vector import ColumnBatch, batch_bytes
from .expressions import ColumnRef, Expression


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


# -- partitioning lineage -------------------------------------------------------
#
# How each narrow operator carries its input's hash placement to its output,
# stated once over the key columns: catalog scans, the physical executor and
# the plan verifier's static derivation all call these rules, so the
# placement a plan is verified against is the placement it runs with. Joins
# are not narrow: the executor follows the strategy it picked at run time.


def pruned_key(
    key: tuple[str, ...] | None, columns: Sequence[str]
) -> tuple[str, ...] | None:
    """A column subset keeps the placement only while it reads every key."""
    if key is None or not set(key) <= set(columns):
        return None
    return key


def renamed_key(
    key: tuple[str, ...] | None, outputs: Sequence[tuple[str, Expression]]
) -> tuple[str, ...] | None:
    """A projection keeps the placement when it re-emits every key column as
    a bare reference, under the first name it gives that column."""
    if key is None:
        return None
    rename: dict[str, str] = {}
    for out_name, expression in outputs:
        if isinstance(expression, ColumnRef):
            rename.setdefault(expression.name, out_name)
    try:
        return tuple(rename[name] for name in key)
    except KeyError:
        return None


def exploded_key(key: tuple[str, ...] | None, column: str) -> tuple[str, ...] | None:
    """Exploding a key column scatters its elements; any other keeps the key."""
    if key is None or column in key:
        return None
    return key


def distinct_key(columns: Sequence[str]) -> tuple[str, ...]:
    """DISTINCT dedups per partition, so rows are placed by the whole row."""
    return tuple(columns)


def carry(partitioner: HashPartitioner | None, rule, *args) -> HashPartitioner | None:
    """``partitioner`` after a narrow rule: the key columns go through
    ``rule(columns, *args)``, the partition count stays."""
    if partitioner is None:
        return None
    key = rule(partitioner.columns, *args)
    return None if key is None else HashPartitioner(key, partitioner.num_partitions)


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
    plus ``bounds``, the P+1 physical row offsets of its P partitions — the
    runtime representation every operator works on.

    Rows are stored partition-major and every selection is ascending, so
    partition ``p`` is the set of live rows in ``[bounds[p], bounds[p+1])``
    and :meth:`all_rows` reads partitions in order. Every kernel runs once
    over the whole batch; partitions only set tasks, placement and the
    aggregate's partial-group count.

    Row tuples are only materialized at the edges (:meth:`all_rows`), which
    is where dictionary term IDs finally decode — late materialization.
    """

    __slots__ = ("schema", "batch", "bounds", "partitioner", "_estimated_bytes")

    def __init__(
        self,
        schema,
        batch: ColumnBatch,
        bounds: tuple[int, ...],
        partitioner: HashPartitioner | None = None,
    ):
        if partitioner is not None and partitioner.num_partitions != len(bounds) - 1:
            raise PlanError("partitioner partition count does not match the bounds")
        self.schema = schema
        self.batch = batch
        self.bounds = bounds
        self.partitioner = partitioner
        # The batch is immutable after construction — operators always build
        # fresh batches (or selection views) — so sizing is computed once.
        self._estimated_bytes: int | None = None

    @classmethod
    def from_rows(
        cls,
        schema: TableSchema,
        rows: list[tuple],
        num_partitions: int,
        partition_columns: tuple[str, ...] | None = None,
    ) -> "ColumnarData":
        """Place row tuples into partitions and transpose them once into a
        compacted (``sel is None``) batch.

        With ``partition_columns`` the rows are hash-placed on them and the
        result carries the partitioner (loaders use it for e.g. the PT's
        subject partitioning from paper §3.1); without, they are spread
        round-robin. Either way rows keep their input order inside each
        partition.
        """
        if num_partitions <= 0:
            raise PlanError("num_partitions must be positive")
        partitioner = None
        if partition_columns:
            partitioner = HashPartitioner(tuple(partition_columns), num_partitions)
            # Only the key columns are transposed to place the rows.
            key_indexes = [schema.index_of(name) for name in partition_columns]
            key_columns = [[row[i] for row in rows] for i in key_indexes]
            sels = partitioner.place(key_columns, range(len(rows)))
        else:
            sels = [range(p, len(rows), num_partitions) for p in range(num_partitions)]
        # One transpose, fed by a tuple of references in placement order
        # (the argument tuple ``zip(*rows)`` builds anyway): no row is copied.
        placed = tuple(map(rows.__getitem__, chain.from_iterable(sels)))
        batch = ColumnBatch.from_rows(len(schema.names), placed)
        return cls(schema, batch, _offsets(sels), partitioner)

    @property
    def num_partitions(self) -> int:
        """How many partitions the data is split into."""
        return len(self.bounds) - 1

    @property
    def num_rows(self) -> int:
        """Total live rows."""
        return self.batch.num_rows

    def compact_bounds(self) -> tuple[int, ...]:
        """The bounds of :meth:`concat`'s batch."""
        sel = self.batch.sel
        return self.bounds if sel is None else rebound(self.bounds, sel)

    def all_rows(self) -> list[tuple]:
        """Materialize every live row as a tuple (driver-side collect)."""
        return self.batch.rows()

    def concat(self) -> ColumnBatch:
        """All live rows as one compacted batch (driver-side gather)."""
        return self.batch.compact()

    def placed(self, key_indexes: list[int], partitioner: HashPartitioner) -> "ColumnarData":
        """The shuffle: rows hash-placed by ``partitioner`` on the columns at
        ``key_indexes``, gathered once into partition-major order."""
        batch = self.batch
        sels = partitioner.place([batch.columns[i] for i in key_indexes], batch.live())
        order = list(chain.from_iterable(sels))
        columns = tuple([column[i] for i in order] for column in batch.columns)
        return ColumnarData(
            self.schema, ColumnBatch(columns, len(order)), _offsets(sels), partitioner
        )

    def is_partitioned_on(self, columns: tuple[str, ...]) -> bool:
        """Whether rows are hash-placed by exactly these columns."""
        return self.partitioner is not None and self.partitioner.columns == columns

    def estimated_bytes(self) -> int:
        """Rough in-flight size — what a shuffle of this dataset would move —
        priced through the batch's cached per-row byte vector."""
        if self._estimated_bytes is None:
            self._estimated_bytes = batch_bytes(self.batch)
        return self._estimated_bytes


def rebound(bounds: tuple[int, ...], rows: Sequence[int]) -> tuple[int, ...]:
    """The bounds of an operator output whose row ``k`` came from source row
    ``rows[k]``: ``rows`` ascends, so each source offset bisects into it."""
    return tuple(bisect_left(rows, offset) for offset in bounds)


def stack(schema, parts: Sequence[ColumnarData]) -> ColumnarData:
    """``parts`` one after another, compacted, keeping every part's
    partitions (unplaced: the parts need not share a placement)."""
    columns: list[list] = [[] for _ in schema.names]
    bounds = [0]
    offset = 0
    for part in parts:
        batch = part.concat()
        for target, column in zip(columns, batch.columns):
            target.extend(column)
        bounds.extend(offset + bound for bound in part.compact_bounds()[1:])
        offset += batch.length
    return ColumnarData(schema, ColumnBatch(tuple(columns), offset), tuple(bounds))


def _offsets(sels: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Partition-major bounds of partitions holding ``len(sel)`` rows each."""
    return (0, *accumulate(map(len, sels)))
