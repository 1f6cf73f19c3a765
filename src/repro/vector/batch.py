"""The column-batch abstraction: fixed layout, selection vectors, null masks.

A :class:`ColumnBatch` is the executor's unit of data: a tuple of
parallel cell vectors (Python lists, or ``array('q')`` for packed integer
columns out of the columnar reader), a physical row count, and an optional
**selection vector** — an ordered sequence of live row indices. Filters
evaluate to selection vectors instead of copying rows; projections subset
the column tuple without touching a single cell; only operators that truly
need contiguous data (hash-join gathers, DISTINCT, the emission boundary)
materialize the selection.

Rows exist only at the edges: :meth:`ColumnBatch.from_rows` transposes
tuple rows in (via C-speed ``zip``) when a table is registered, and
:meth:`ColumnBatch.rows` transposes back out — the *late materialization*
boundary where dictionary term IDs finally decode to terms (see
``core/encoding.py``).

Null handling is positional: a NULL cell is ``None`` in its vector (exactly
as in row tuples), and :meth:`ColumnBatch.null_mask` derives the per-column
mask over live rows when an operator wants it explicitly (OPTIONAL's left
joins produce runs of ``None`` in the right-side columns).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

from ..rdf.dictionary import TERM_ID_BASE, default_dictionary

__all__ = [
    "ColumnBatch",
    "batch_bytes",
    "estimate_batch_bytes",
    "pack_ints",
    "row_bytes_vector",
]

#: Bounds of a signed 64-bit ``array('q')`` slot.
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


class ColumnBatch:
    """One partition of columnar data: parallel cell vectors plus selection.

    Attributes:
        columns: one sequence per schema column, each ``length`` cells long.
            Cells use the same values as row tuples (term-ID ints, strings,
            ``None`` for NULL, lists for multi-valued Property Table cells),
            so a transpose round-trip is byte-identical.
        length: physical row count of every column vector.
        sel: ordered live row indices (``list`` or ``range``), or ``None``
            when every physical row is live. Operators downstream must read
            rows through the selection; :meth:`compact` materializes it.
        bytes_cache: memo dict shared by every selection view over the
            *same* ``columns`` tuple (filters, shuffled partitions,
            semi-join outputs). Holds the per-physical-row byte-cost
            vector (:func:`row_bytes_vector`) so size estimation prices a
            filtered view by summing cached per-row costs instead of
            re-walking every cell. Views over a different column subset
            must NOT share it — per-row costs depend on the columns. The
            executor keeps its cross-query operator memos here too (filter
            selections, join build indexes, explode outputs), and only for
            batches with ``sel is None`` — which is why the catalog stores
            unselected batches and hands the same objects to every scan.
    """

    __slots__ = ("columns", "length", "sel", "bytes_cache")

    def __init__(
        self,
        columns: tuple[Sequence, ...],
        length: int,
        sel: Sequence[int] | None = None,
        bytes_cache: dict | None = None,
    ):
        self.columns = columns
        self.length = length
        self.sel = sel
        self.bytes_cache = {} if bytes_cache is None else bytes_cache

    @classmethod
    def from_rows(cls, width: int, rows: Sequence[tuple]) -> "ColumnBatch":
        """Transpose row tuples into a batch (``zip`` runs at C speed)."""
        if not rows:
            return cls(tuple([] for _ in range(width)), 0)
        return cls(tuple(zip(*rows)), len(rows))

    @property
    def num_rows(self) -> int:
        """Live rows (the selection's length when one is present)."""
        if self.sel is None:
            return self.length
        return len(self.sel)

    def live(self) -> Sequence[int]:
        """The live row indices, as a sequence (``range`` when unselected)."""
        if self.sel is None:
            return range(self.length)
        return self.sel

    def compact(self) -> "ColumnBatch":
        """Materialize the selection into fresh contiguous columns."""
        sel = self.sel
        if sel is None:
            return self
        columns = tuple([column[i] for i in sel] for column in self.columns)
        return ColumnBatch(columns, len(sel))

    def rows(self) -> list[tuple]:
        """Materialize live rows as tuples (the late-materialization edge)."""
        if not self.columns:
            return [()] * self.num_rows
        if self.sel is None:
            return list(zip(*self.columns))
        gathered = [[column[i] for i in self.sel] for column in self.columns]
        return list(zip(*gathered))

    def null_mask(self, column_index: int) -> list[bool]:
        """Per-live-row NULL mask of one column (True = cell is NULL)."""
        column = self.columns[column_index]
        return [column[i] is None for i in self.live()]


def pack_ints(values: list) -> "array | list":
    """Pack an all-int, NULL-free vector into ``array('q')``.

    The columnar reader calls this per decoded chunk: dictionary term IDs
    and COUNT outputs are plain ints well inside the signed-64 range, so an
    ID column stores as 8 machine bytes per cell instead of a boxed
    ``int`` object. Vectors with NULLs, strings, or lists pass through
    unchanged — ``array`` has no null slot.
    """
    for value in values:
        if type(value) is not int or not (_INT64_MIN <= value <= _INT64_MAX):
            return values
    return array("q", values)


def estimate_batch_bytes(columns: tuple[Sequence, ...], live: Sequence[int]) -> int:
    """Approximate serialized size of a batch's live rows (shuffle
    accounting): 8 bytes of framing per row plus each cell.

    Dictionary term IDs are charged at their *decoded* serialization length
    — what the emulated cluster would actually move — so the cost model's
    shuffle totals and broadcast-vs-shuffle decisions are those of the
    lexical strings (the paper figures must not change because cells got
    smaller in this process). :func:`row_bytes_vector` is the cacheable
    per-row form of the same arithmetic; a unit test holds the two equal.
    """
    lengths = default_dictionary().decoded_lengths
    base = TERM_ID_BASE
    total = 8 * len(live)
    for column in columns:
        for i in live:
            value = column[i]
            if type(value) is int:
                total += lengths[value - base] + 4 if value >= base else 8
            elif value is None:
                total += 1
            elif isinstance(value, str):
                total += len(value) + 4
            elif isinstance(value, (list, tuple)):
                total += 4
                for element in value:
                    if type(element) is int and element >= base:
                        total += lengths[element - base] + 4
                    elif isinstance(element, str):
                        total += len(element) + 4
                    else:
                        total += 8
            else:
                total += 8
    return total


def row_bytes_vector(columns: tuple[Sequence, ...], length: int) -> list[int]:
    """Per-physical-row byte costs of a batch's columns (cacheable).

    ``row_bytes_vector(columns, length)[i]`` is exactly what
    :func:`estimate_batch_bytes` charges for row ``i`` alone, so summing a
    subset of entries prices any selection view over the same columns. The
    dictionary is append-only within a session, so the vector stays valid
    for the lifetime of the columns and lives in
    :attr:`ColumnBatch.bytes_cache`, shared by every view.
    """
    lengths = default_dictionary().decoded_lengths
    base = TERM_ID_BASE
    totals = [8] * length
    for column in columns:
        if isinstance(column, array):
            # Packed ID columns are all-int and NULL-free by construction.
            for i, value in enumerate(column):
                totals[i] += lengths[value - base] + 4 if value >= base else 8
            continue
        for i, value in enumerate(column):
            if type(value) is int:
                totals[i] += lengths[value - base] + 4 if value >= base else 8
            elif value is None:
                totals[i] += 1
            elif isinstance(value, str):
                totals[i] += len(value) + 4
            elif isinstance(value, (list, tuple)):
                extra = 4
                for element in value:
                    if type(element) is int and element >= base:
                        extra += lengths[element - base] + 4
                    elif isinstance(element, str):
                        extra += len(element) + 4
                    else:
                        extra += 8
                totals[i] += extra
            else:
                totals[i] += 8
    return totals


def batch_bytes(batch: ColumnBatch) -> int:
    """Size a batch via its cached per-row byte vector.

    Equal by construction to ``estimate_batch_bytes(batch.columns,
    batch.live())``, but the per-cell walk happens once per physical
    columns tuple: filters, shuffled partitions, and semi/anti-join outputs
    share the source's ``bytes_cache``, so re-pricing a view is one list
    index per live row. A view that arrives *without* a populated cache
    (a projection built fresh column tuples) is priced by walking only its
    live rows — building a table-length vector for a narrow selection
    would cost more than it saves.
    """
    cache = batch.bytes_cache
    vector = cache.get("row_bytes")
    sel = batch.sel
    if vector is None:
        if sel is not None and len(sel) < batch.length:
            return estimate_batch_bytes(batch.columns, sel)
        vector = row_bytes_vector(batch.columns, batch.length)
        cache["row_bytes"] = vector
    if sel is None:
        total = cache.get("total")
        if total is None:
            total = sum(vector)
            cache["total"] = total
        return total
    return sum(vector[i] for i in sel)
