"""The query lifecycle shared by the baselines that compile SPARQL to engine
DataFrames (S2RDF, SPARQLGX, SPARQLGX-SDE), and the pattern cardinality
estimate their join orders share.

:class:`CompiledBaseline` writes parse → reject → join chain → SELECT tail →
execute → finalize → report once, together with EXPLAIN and the static plan
check. The per-pattern frames come from
:func:`repro.core.executor.shape_vp_frame` and the SELECT tail from
:func:`repro.core.executor.select_tail`, both shared with PRoST, so the
systems differ only where the paper says they do: storage layout and join
planning.
"""

from __future__ import annotations

import time

from ..core.executor import (
    join_shared,
    select_tail,
    shape_vp_frame,
    unbound_predicate_frame,
)
from ..core.join_tree import connected_first
from ..core.loader import LoadReport
from ..core.results import QueryExecutionReport, ResultSet, finalize_solutions
from ..engine.cluster import TASK_OVERHEAD_SEC
from ..engine.dataframe import DataFrame
from ..engine.session import EngineSession
from ..errors import LoaderError, UnsupportedSparqlError
from ..rdf.stats import GraphStatistics
from ..sparql.algebra import SelectQuery, TriplePattern, Variable
from ..sparql.parser import parse_sparql


def pattern_cardinality(statistics: GraphStatistics, pattern: TriplePattern) -> float:
    """Estimated matching tuples for one pattern (for join ordering)."""
    if isinstance(pattern.predicate, Variable):
        return float(statistics.total_triples)
    stats = statistics.for_predicate(pattern.predicate.value)
    estimated = float(stats.triple_count)
    if not isinstance(pattern.object, Variable):
        estimated /= max(1, stats.distinct_objects)
    if not isinstance(pattern.subject, Variable):
        estimated /= max(1, stats.distinct_subjects)
    return estimated


class CompiledBaseline:
    """A baseline that answers a basic graph pattern with one join chain.

    Subclasses supply ``load`` and what differs between the systems:

    - :meth:`_pattern_order`: the join order (and S2RDF's table choice,
      which may prove the query empty);
    - :meth:`_pattern_frame`: one pattern's frame (the default reads
      ``_vp_tables``, the predicate → VP table map ``load`` fills);
    - :attr:`join_hint` and :attr:`run_optimizer`: the engine settings;
    - :meth:`_explain_header`: EXPLAIN lines printed before the plan.

    The chain takes the first pattern in order, then repeatedly the first
    pending pattern sharing a variable with the frame (else the first
    pending pattern), joining on the shared columns (else a cross join).
    """

    name: str
    session: EngineSession
    _vp_tables: dict[str, str]
    #: Set by ``load``; queries before it raise ``LoaderError``.
    load_report: LoadReport | None = None
    #: Join strategy hint for keyed joins (``shuffle``: RDD joins, which
    #: have no broadcast strategy).
    join_hint = "auto"
    #: Whether the engine's optimizer (Catalyst's role) rewrites the plan.
    run_optimizer = True

    def _pattern_order(
        self, query: SelectQuery
    ) -> list[tuple[TriplePattern, str | None]] | None:
        """The BGP in join order, each pattern with the table to read in
        place of its VP table (``None``: the VP table); ``None`` instead of
        a list when the BGP provably matches nothing."""
        raise NotImplementedError

    def _pattern_frame(self, pattern: TriplePattern, table: str | None) -> DataFrame:
        """One pattern's frame, read from ``table`` or its VP table."""
        if isinstance(pattern.predicate, Variable):
            return unbound_predicate_frame(self.session, self._vp_tables, pattern)
        table = table or self._vp_tables.get(pattern.predicate.value)
        source = self.session.table(table) if table else None
        return shape_vp_frame(self.session, source, pattern)

    def _explain_header(self, query: SelectQuery) -> list[str]:
        """EXPLAIN lines printed before the engine plan."""
        return []

    def _parse(self, query: str | SelectQuery) -> SelectQuery:
        parsed = parse_sparql(query) if isinstance(query, str) else query
        if self.load_report is None:
            raise LoaderError("no graph loaded; call load() first")
        if parsed.optional_groups or parsed.is_union or parsed.is_aggregate:
            raise UnsupportedSparqlError(
                f"the {self.name} baseline evaluates plain basic graph patterns only"
            )
        return parsed

    def dataframe(self, query: str | SelectQuery) -> DataFrame | None:
        """Compile a query to its join chain plus the SELECT tail.

        Returns ``None`` when the pattern order proves the result empty.
        """
        parsed = self._parse(query)
        order = self._pattern_order(parsed)
        if order is None:
            return None
        (first, table), *pending = order
        frame = self._pattern_frame(first, table)
        for pattern, table in connected_first(
            pending,
            lambda item: {v.name for v in item[0].variables},
            {v.name for v in first.variables},
        ):
            right = self._pattern_frame(pattern, table)
            frame = join_shared(frame, right, hint=self.join_hint)
        return select_tail(frame, parsed)

    def sparql(self, query: str | SelectQuery) -> ResultSet:
        """Execute a SELECT query; see :class:`ResultSet`."""
        parsed = self._parse(query)
        started = time.perf_counter()
        frame = self.dataframe(parsed)
        variables = tuple(v.name for v in parsed.projection)
        if frame is None:
            # Provably empty: no cluster work at all.
            report = QueryExecutionReport(
                simulated_sec=TASK_OVERHEAD_SEC,
                wall_clock_sec=time.perf_counter() - started,
            )
            return ResultSet(variables, [], report)
        data, engine_report = frame.collect_data_with_report(
            run_optimizer=self.run_optimizer
        )
        rows = finalize_solutions(parsed, data)
        report = QueryExecutionReport(
            simulated_sec=engine_report.simulated_sec,
            wall_clock_sec=time.perf_counter() - started,
            engine_report=engine_report,
        )
        return ResultSet(variables, rows, report)

    def explain(self, query: str | SelectQuery, analyze: bool = False) -> str:
        """Plan-shape EXPLAIN: the system's header, then the engine plan as
        it runs (optimized only when the system has an optimizer).

        With ``analyze``, the query executes under a tracer and the plan
        carries per-operator actual row counts and data-movement bytes.
        """
        parsed = self._parse(query)
        lines = self._explain_header(parsed)
        lines.append("== Engine Plan ==")
        frame = self.dataframe(parsed)
        if frame is None:
            lines.append("(skipped: the empty-table optimization answers the query)")
        elif analyze:
            from ..obs.tracer import Tracer

            _, engine_report = frame.collect_data_with_report(
                run_optimizer=self.run_optimizer, tracer=Tracer()
            )
            lines.append(engine_report.explain())
        else:
            lines.append(frame.explain(optimized=self.run_optimizer))
        return "\n".join(lines)

    def verify(self, query: str | SelectQuery) -> list:
        """Statically verify the compiled plan without executing it.

        Returns every violated invariant as a
        :class:`~repro.analysis.diagnostics.Diagnostic` (empty list = the
        plan is good); a provably empty query has no plan to check.
        """
        from ..analysis import verify_logical_plan

        frame = self.dataframe(query)
        if frame is None:
            return []
        return verify_logical_plan(frame.plan, catalog=self.session.catalog)
