"""Query results: decoded solution rows plus the execution report."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat

from ..engine.data import ColumnarData
from ..engine.session import QueryReport
from ..rdf.dictionary import TERM_ID_BASE, default_dictionary
from ..rdf.terms import Term, term_sort_key
from ..sparql.algebra import SelectQuery, Variable
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
    Duplicate rows (bag semantics) may be one shared tuple object, listed
    once per multiplicity; rows are immutable, so only identity shows it.
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
    :func:`solution_sort_key`) sorts an index permutation over the encoded
    columns — the dictionary's sort keys are exactly the decoded terms'
    :func:`term_sort_key` — OFFSET/LIMIT slice it, and only the surviving
    rows decode, column-wise. Sort keys and decoded terms are computed once
    per *distinct* cell (:func:`_per_distinct_cell`), so rows dropped by
    LIMIT never materialize at all.

    Without ORDER BY, a result whose solutions can repeat
    (:func:`_solutions_can_repeat`) is counted first; when some
    do repeat, it is handled as a multiset: each distinct solution is
    sorted, sliced and decoded once, and its duplicates are emitted as the
    *same* tuple object, once per multiplicity. Sort keys are injective on
    terms, so this is the whole-row sort's output exactly. A result of one
    row or none is not sorted at all.
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

    order = list(range(batch.length))
    if query.order_by:
        projection = list(query.projection)
        for condition in reversed(query.order_by):
            keys = _key_vector(columns[projection.index(condition.variable)], cell_key)
            order.sort(key=keys.__getitem__, reverse=condition.descending)
    elif len(order) > 1 and columns:
        if _solutions_can_repeat(query):
            counts = Counter(columns[0] if len(columns) == 1 else zip(*columns))
            if len(counts) < len(order):
                return _counted_solutions(query, counts, len(columns), cell_key)
        order = _whole_row_order(columns, cell_key)
    return _decoded_rows(columns, _sliced(order, query))


def _solutions_can_repeat(query: SelectQuery) -> bool:
    """Whether the result can hold equal solutions (bag semantics): the
    WHERE is a UNION or the projection drops a pattern variable, and no
    DISTINCT, GROUP BY or aggregate collapses them."""
    if query.distinct or query.group_by or query.aggregates:
        return False
    if query.is_union:
        return True
    projected = {variable.name for variable in query.projection}
    return any(
        isinstance(slot, Variable) and slot.name not in projected
        for pattern in query.all_patterns()
        for slot in (pattern.subject, pattern.predicate, pattern.object)
    )


def _counted_solutions(
    query: SelectQuery, counts: Counter, width: int, cell_key
) -> list[tuple[Term | None, ...]]:
    """Rows in whole-row order from ``counts`` (solution -> multiplicity; a
    bare cell when ``width`` is 1): each distinct solution is sorted,
    sliced and decoded once, then emitted as one shared tuple per
    multiplicity."""
    solutions = list(counts)
    solution_columns = (solutions,) if width == 1 else tuple(zip(*solutions))
    order = _whole_row_order(solution_columns, cell_key)
    multiplicities = list(counts.values())
    runs = [multiplicities[i] for i in order]
    if query.offset or query.limit is not None:
        order, runs = _sliced_runs(order, runs, query.offset or 0, query.limit)
    rows = _decoded_rows(solution_columns, order)
    return list(chain.from_iterable(map(repeat, rows, runs)))


def _per_distinct_cell(function, cells) -> dict:
    """``{cell: function(cell)}`` over the distinct cells of ``cells``.

    Both finalize paths key and decode cells only through this, so each
    distinct cell's sort key and term is computed once, however often it
    repeats — result columns are low-cardinality.
    """
    return {cell: function(cell) for cell in dict.fromkeys(cells)}


def _key_vector(column, cell_key) -> list:
    """The sort key of every cell of ``column``."""
    return list(map(_per_distinct_cell(cell_key, column).__getitem__, column))


def _whole_row_order(columns, cell_key) -> list[int]:
    """Row indexes in :func:`solution_sort_key` order (stable): one
    composite key tuple per row via ``zip``, or the bare key for one
    column."""
    keys = [_key_vector(column, cell_key) for column in columns]
    composite = keys[0] if len(keys) == 1 else list(zip(*keys))
    return sorted(range(len(composite)), key=composite.__getitem__)


def _sliced(order: list[int], query: SelectQuery) -> list[int]:
    """OFFSET/LIMIT over a row order."""
    if query.offset:
        order = order[query.offset :]
    if query.limit is not None:
        order = order[: query.limit]
    return order


def _sliced_runs(
    order: list[int], runs: list[int], offset: int, limit: int | None
) -> tuple[list[int], list[int]]:
    """OFFSET/LIMIT over rows held as runs: ``order[i]`` repeated
    ``runs[i]`` times. Returns the runs that keep a row, the first and last
    trimmed; stops at the last kept run."""
    room = sum(runs) if limit is None else limit
    kept_order: list[int] = []
    kept_runs: list[int] = []
    for index, run in zip(order, runs):
        if room <= 0:
            break
        if offset >= run:
            offset -= run
            continue
        take = min(run - offset, room)
        offset = 0
        kept_order.append(index)
        kept_runs.append(take)
        room -= take
    return kept_order, kept_runs


def _decoded_rows(columns, order: list[int]) -> list[tuple[Term | None, ...]]:
    """Rows ``order`` of ``columns`` as term tuples: each column is gathered
    in emission order, then decoded once per distinct kept cell."""
    if not columns:
        return [()] * len(order)
    decoded = []
    for column in columns:
        kept = list(map(column.__getitem__, order))
        decoded.append(map(_per_distinct_cell(decode_term, kept).__getitem__, kept))
    return list(zip(*decoded))
