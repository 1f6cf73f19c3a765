"""Query results: decoded solution rows plus the execution report."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..engine.data import ColumnarData
from ..engine.session import QueryReport
from ..rdf.dictionary import TERM_ID_BASE, default_dictionary
from ..rdf.terms import Term, term_sort_key
from ..sparql.algebra import SelectQuery
from .encoding import decode_term


@dataclass(frozen=True)
class QueryExecutionReport:
    """Everything measured about one SPARQL query run.

    Attributes:
        join_tree: textual rendering of the translated Join Tree (``None``
            for systems without one, e.g. Rya).
        engine_report: the engine-level :class:`QueryReport`, when the query
            ran on the DataFrame engine.
        simulated_sec: cost-model cluster time.
        wall_clock_sec: local Python execution time.
        trace: root :class:`~repro.obs.tracer.Span` of the whole query when
            it ran under a tracer (``None`` otherwise).
        explain_text: pre-rendered EXPLAIN ANALYZE text (Join Tree with
            actuals + engine plan) when the run was traced and alignable.
    """

    simulated_sec: float
    wall_clock_sec: float
    join_tree: str | None = None
    engine_report: QueryReport | None = None
    trace: object | None = None
    explain_text: str | None = None

    def summary(self) -> str:
        parts = [f"simulated={self.simulated_sec * 1000:.1f}ms"]
        if self.engine_report is not None:
            parts.append(self.engine_report.summary())
        return " ".join(parts)

    def explain(self) -> str:
        """The best available EXPLAIN text for this run.

        Traced runs return the full EXPLAIN ANALYZE rendering; untraced
        runs fall back to the Join Tree description plus the engine plan.
        """
        if self.explain_text is not None:
            return self.explain_text
        parts = []
        if self.join_tree is not None:
            parts.append(f"== Join Tree ==\n{self.join_tree}")
        if self.engine_report is not None:
            parts.append(f"== Engine Plan ==\n{self.engine_report.explain()}")
        return "\n".join(parts) if parts else "(no plan information recorded)"


class ResultSet:
    """Decoded solutions of one SELECT query.

    Rows are tuples of terms (or ``None`` for unbound cells) ordered by the
    query's projection. Without an ORDER BY clause rows are sorted
    deterministically, so result sets compare exactly across systems.
    """

    def __init__(
        self,
        variables: tuple[str, ...],
        rows: list[tuple[Term | None, ...]],
        report: QueryExecutionReport,
    ):
        self.variables = variables
        self.rows = rows
        self.report = report

    def __iter__(self) -> Iterator[tuple[Term | None, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, ResultSet):
            return self.variables == other.variables and self.rows == other.rows
        return NotImplemented

    def to_dicts(self) -> list[dict[str, Term | None]]:
        """Rows as ``{variable: term}`` dictionaries."""
        return [dict(zip(self.variables, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"ResultSet({len(self.rows)} rows, vars={list(self.variables)})"


def solution_sort_key(row: tuple[Term | None, ...]):
    """Deterministic ordering for solution rows (NULLs first)."""
    return [
        (-1, "") if term is None else term_sort_key(term) for term in row
    ]


def apply_solution_modifiers(
    query: SelectQuery, rows: list[tuple[Term | None, ...]]
) -> list[tuple[Term | None, ...]]:
    """ORDER BY / deterministic sort, then OFFSET / LIMIT, over *decoded*
    rows — for a system with no engine plan behind its solutions (Rya);
    everything on :mod:`repro.engine` goes through
    :func:`finalize_solutions` instead.
    """
    projection = list(query.projection)
    if query.order_by:
        for condition in reversed(query.order_by):
            position = projection.index(condition.variable)
            rows.sort(
                key=lambda row: solution_sort_key((row[position],)),
                reverse=condition.descending,
            )
    else:
        rows.sort(key=solution_sort_key)
    if query.offset:
        rows = rows[query.offset :]
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def finalize_solutions(
    query: SelectQuery, data: ColumnarData
) -> list[tuple[Term | None, ...]]:
    """Solution modifiers and decode for an engine result, without
    intermediate row tuples.

    ORDER BY (or, without one, the deterministic whole-row order of
    :func:`solution_sort_key`) runs as repeated stable sorts of an index
    permutation over the encoded columns — the dictionary's sort keys are
    exactly the decoded terms' :func:`term_sort_key` — OFFSET/LIMIT slice
    that permutation, and only the surviving rows decode, column-wise.
    Sort keys and decoded terms are computed once per *distinct* cell of
    each column — result columns are low-cardinality, so this is where
    late materialization pays, and rows dropped by LIMIT never materialize
    at all.
    """
    batch = data.concat()
    columns = batch.columns
    sort_key_of = default_dictionary().sort_key_of
    base = TERM_ID_BASE

    def cell_key(cell) -> tuple:
        if type(cell) is int and cell >= base:
            return sort_key_of(cell)
        if cell is None:
            return (-1, "")
        return term_sort_key(decode_term(cell))

    def key_vector(column) -> list:
        try:
            distinct = dict.fromkeys(column)
        except TypeError:  # unhashable cells: fall back to a linear cache
            cache: dict = {}
            out = []
            for cell in column:
                key = cache.get(id(cell))
                if key is None:
                    key = cell_key(cell)
                    cache[id(cell)] = key
                out.append(key)
            return out
        keys = {cell: cell_key(cell) for cell in distinct}
        return list(map(keys.__getitem__, column))

    order = list(range(batch.length))
    projection = list(query.projection)
    if query.order_by:
        for condition in reversed(query.order_by):
            position = projection.index(condition.variable)
            keys = key_vector(columns[position])
            order.sort(key=keys.__getitem__, reverse=condition.descending)
    elif len(columns) == 1:
        keys = key_vector(columns[0])
        order.sort(key=keys.__getitem__)
    elif columns:
        # Whole-row ordering: one composite key tuple per row via zip (the
        # same lexicographic order as solution_sort_key's per-row lists).
        keys = list(zip(*(key_vector(column) for column in columns)))
        order.sort(key=keys.__getitem__)
    if query.offset:
        order = order[query.offset :]
    if query.limit is not None:
        order = order[: query.limit]

    decoded_columns = []
    for column in columns:
        try:
            decoded = {
                cell: None if cell is None else decode_term(cell)
                for cell in dict.fromkeys(column)
            }
        except TypeError:  # unhashable cells: decode row-at-a-time
            out = [
                None if column[i] is None else decode_term(column[i]) for i in order
            ]
            decoded_columns.append(out)
            continue
        # Two C-speed passes: decode each cell through the per-distinct
        # cache, then gather in emission order.
        full = list(map(decoded.__getitem__, column))
        decoded_columns.append(list(map(full.__getitem__, order)))
    if not decoded_columns:
        return [()] * len(order)
    return list(zip(*decoded_columns))
