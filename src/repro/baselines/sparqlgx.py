"""SPARQLGX baseline (Graux et al., ISWC 2016).

SPARQLGX stores Vertical Partitioning tables as *plain text* files on HDFS
and compiles SPARQL directly into Spark (RDD) operations — no Spark SQL, no
Catalyst. Its own loading-time statistics drive the join order. Consequences
reproduced here:

- storage is VP-only plain text (smallest footprint, Table 1);
- scans always read whole ``(s, o)`` lines — no column pruning;
- joins are always hash shuffles (RDD joins have no broadcast strategy);
- there is no property table, so an n-pattern query needs n − 1 joins.
"""

from __future__ import annotations

import time
import zlib

from ..columnar.schema import ColumnSchema, TableSchema
from ..core.encoding import cell_for_text, encode_term, encode_term_text
from ..core.executor import shape_vp_frame, unbound_predicate_frame
from ..core.filters import SparqlCondition
from ..core.loader import LoadReport, estimate_load_seconds
from ..core.naming import assign_names
from ..core.results import QueryExecutionReport, ResultSet, finalize_solutions
from ..errors import UnsupportedSparqlError
from ..engine.cluster import SCAN_BYTES_PER_SEC, ClusterConfig, SimulatedCluster
from ..engine.dataframe import DataFrame
from ..engine.session import EngineSession
from ..rdf.graph import Graph
from ..rdf.stats import GraphStatistics, collect_statistics
from ..sparql.algebra import SelectQuery, TriplePattern, Variable
from ..sparql.parser import parse_sparql
from .plans import pattern_cardinality

_VP_SCHEMA = TableSchema([ColumnSchema("s", "string"), ColumnSchema("o", "string")])


class SparqlGx:
    """VP-only, statistics-ordered, shuffle-join SPARQL processor."""

    name = "SPARQLGX"

    #: RDD row throughput relative to Spark SQL's whole-stage codegen. The
    #: compiled Scala closures SPARQLGX emits process generic JVM objects,
    #: which Spark's own benchmarks put several times slower per row than
    #: the code Catalyst generates for DataFrames.
    RDD_SLOWDOWN = 8.0

    def __init__(self, num_workers: int = 9, cluster_config: ClusterConfig | None = None):
        import dataclasses

        if cluster_config is None:
            cluster_config = ClusterConfig(num_workers=num_workers)
        cluster_config = dataclasses.replace(
            cluster_config, rows_per_sec=cluster_config.rows_per_sec / self.RDD_SLOWDOWN
        )
        self.session = EngineSession(SimulatedCluster(cluster_config))
        self.statistics: GraphStatistics | None = None
        self._tables: dict[str, str] = {}
        self.last_query_report_: QueryExecutionReport | None = None

    # -- loading ---------------------------------------------------------------

    def load(self, graph: Graph) -> LoadReport:
        """Write one plain-text ``s o`` file per predicate and collect stats."""
        started = time.perf_counter()
        self.statistics = collect_statistics(graph)
        names = assign_names([p.value for p in graph.predicates])
        text_bytes = 0
        for predicate in graph.predicates:
            pairs = [
                (t.subject, t.object) for t in graph.triples_with_predicate(predicate)
            ]
            rows = [(encode_term(s), encode_term(o)) for s, o in pairs]
            # The text file on HDFS is the system of record (and the size
            # measurement), so it always stores the lexical N-Triples form;
            # the catalog serves the dictionary-encoded rows to scans.
            # SPARQLGX stores its triple files through HDFS's deflate codec,
            # which is where its small Table 1 footprint comes from.
            text = "".join(
                f"{encode_term_text(s)}\t{encode_term_text(o)}\n" for s, o in pairs
            )
            payload = zlib.compress(text.encode("utf-8"), level=6)
            text_bytes += len(payload)
            path = f"/sparqlgx/vp/{names[predicate.value]}.txt"
            self.session.hdfs.write(path, payload)
            table_name = f"gx_{names[predicate.value]}"
            self.session.register_rows(table_name, _VP_SCHEMA, rows)
            self._tables[predicate.value] = table_name
        report = LoadReport(
            system=self.name,
            stored_bytes=text_bytes,
            tables_written=len(self._tables),
            triples_loaded=len(graph),
            simulated_sec=estimate_load_seconds(
                self.session,
                text_bytes,
                len(graph),
                shuffles=1,
                table_jobs=len(self._tables),
                # Loading is a plain text transform; the RDD query-side
                # slowdown does not apply to it.
                rows_per_sec=self.session.config.rows_per_sec * self.RDD_SLOWDOWN,
            ),
            wall_clock_sec=time.perf_counter() - started,
        )
        self.load_report = report
        return report

    # -- querying ----------------------------------------------------------------

    def _frame_for_pattern(self, pattern: TriplePattern) -> DataFrame:
        if isinstance(pattern.predicate, Variable):
            return unbound_predicate_frame(self.session, self._tables, pattern)
        table = self._tables.get(pattern.predicate.value)
        if table is None:
            return shape_vp_frame(self.session, None, pattern)
        return shape_vp_frame(self.session, self.session.table(table), pattern)

    def dataframe(self, query: SelectQuery) -> DataFrame:
        """Compile a query to a left-deep chain of shuffle joins, ordered by
        SPARQLGX's own statistics (ascending estimated cardinality)."""
        assert self.statistics is not None
        ordered = sorted(
            query.patterns,
            key=lambda pattern: pattern_cardinality(self.statistics, pattern),
        )
        frame = self._frame_for_pattern(ordered[0])
        pending = list(ordered[1:])
        while pending:
            # Next pattern sharing a variable with the accumulated columns
            # (connected joins first; cartesian only when unavoidable).
            index = next(
                (
                    i
                    for i, pattern in enumerate(pending)
                    if {v.name for v in pattern.variables} & set(frame.columns)
                ),
                0,
            )
            pattern = pending.pop(index)
            right = self._frame_for_pattern(pattern)
            shared = sorted(set(frame.columns) & set(right.columns))
            if shared:
                frame = frame.join(right, on=shared, hint="shuffle")
            else:
                frame = frame.join(right, on=(), how="cross")
        for filter_expression in query.filters:
            frame = frame.filter(SparqlCondition(filter_expression))
        frame = frame.select(*[v.name for v in query.projection])
        if query.distinct:
            frame = frame.distinct()
        return frame

    def sparql(self, query: str | SelectQuery) -> ResultSet:
        """Execute a SELECT query; see :class:`ResultSet`."""
        parsed = parse_sparql(query) if isinstance(query, str) else query
        if parsed.optional_groups or parsed.is_union:
            raise UnsupportedSparqlError(
                "the SPARQLGX baseline evaluates plain basic graph patterns only"
            )
        started = time.perf_counter()
        frame = self.dataframe(parsed)
        # No Catalyst: the compiled plan runs as-is (no pushdown/pruning).
        data, engine_report = frame.collect_data_with_report(run_optimizer=False)
        rows = finalize_solutions(parsed, data)
        report = QueryExecutionReport(
            simulated_sec=engine_report.simulated_sec,
            wall_clock_sec=time.perf_counter() - started,
            join_tree=None,
            engine_report=engine_report,
        )
        self.last_query_report_ = report
        return ResultSet(tuple(v.name for v in parsed.projection), rows, report)

    def explain(self, query: str | SelectQuery, analyze: bool = False) -> str:
        """Plan-shape EXPLAIN of the compiled shuffle-join chain.

        SPARQLGX has no Catalyst, so the *unoptimized* plan is exactly what
        runs. With ``analyze``, the query executes under a tracer and the
        plan gains per-operator actual row counts and shuffle bytes.
        """
        parsed = parse_sparql(query) if isinstance(query, str) else query
        if parsed.optional_groups or parsed.is_union:
            raise UnsupportedSparqlError(
                "the SPARQLGX baseline evaluates plain basic graph patterns only"
            )
        frame = self.dataframe(parsed)
        if analyze:
            from ..obs.tracer import Tracer

            _, engine_report = frame.collect_with_report(
                run_optimizer=False, tracer=Tracer()
            )
            return f"== Engine Plan ==\n{engine_report.explain()}"
        return f"== Engine Plan ==\n{frame.explain(optimized=False)}"

    def last_query_report(self) -> QueryExecutionReport | None:
        return self.last_query_report_


class SparqlGxDirect:
    """SPARQLGX's *direct evaluator* (SDE): no preprocessing at all.

    The SPARQLGX paper ships a second mode that evaluates SPARQL straight
    off the raw triple file — no Vertical Partitioning, no statistics.
    Loading is a plain file copy (near-instant); every triple pattern scans
    the *whole* triple file, so queries pay for what loading saved. Useful
    when a dataset is queried once or twice and never again.
    """

    name = "SPARQLGX-SDE"

    _SCHEMA = TableSchema(
        [
            ColumnSchema("s", "string"),
            ColumnSchema("p", "string"),
            ColumnSchema("o", "string"),
        ]
    )

    def __init__(self, num_workers: int = 9, cluster_config: ClusterConfig | None = None):
        import dataclasses

        if cluster_config is None:
            cluster_config = ClusterConfig(num_workers=num_workers)
        cluster_config = dataclasses.replace(
            cluster_config,
            rows_per_sec=cluster_config.rows_per_sec / SparqlGx.RDD_SLOWDOWN,
        )
        self.session = EngineSession(SimulatedCluster(cluster_config))
        self.last_query_report_: QueryExecutionReport | None = None

    def load(self, graph: Graph) -> LoadReport:
        """Copy the triple file to HDFS; no transformation, no statistics."""
        started = time.perf_counter()
        # The copied file keeps the lexical, lexicographically sorted form;
        # the catalog rows carry the dictionary-encoded cells in file order.
        text_rows = sorted(
            (
                encode_term_text(triple.subject),
                encode_term_text(triple.predicate),
                encode_term_text(triple.object),
            )
            for triple in graph
        )
        text = "".join(f"{s} {p} {o} .\n" for s, p, o in text_rows)
        payload = text.encode("utf-8")
        self.session.hdfs.write("/sparqlgx-sde/triples.nt", payload, overwrite=True)
        rows = [tuple(cell_for_text(part) for part in row) for row in text_rows]
        self.session.register_rows("sde_triples", self._SCHEMA, rows, replace=True)
        config = self.session.config
        report = LoadReport(
            system=self.name,
            stored_bytes=len(payload),
            tables_written=1,
            triples_loaded=len(graph),
            simulated_sec=config.data_scale
            * len(payload)
            / (SCAN_BYTES_PER_SEC * config.num_workers),
            wall_clock_sec=time.perf_counter() - started,
        )
        self.load_report = report
        return report

    def dataframe(self, query: SelectQuery) -> DataFrame:
        """Each pattern is a full scan of the triple file plus selections."""
        frame: DataFrame | None = None
        pending = list(query.patterns)
        ordered: list[TriplePattern] = []
        bound: set[str] = set()
        while pending:  # connected patterns first, query order otherwise
            index = next(
                (
                    i
                    for i, pattern in enumerate(pending)
                    if {v.name for v in pattern.variables} & bound
                ),
                0,
            )
            pattern = pending.pop(index)
            ordered.append(pattern)
            bound |= {v.name for v in pattern.variables}
        for pattern in ordered:
            right = self._pattern_frame(pattern)
            if frame is None:
                frame = right
                continue
            shared = sorted(set(frame.columns) & set(right.columns))
            if shared:
                frame = frame.join(right, on=shared, hint="shuffle")
            else:
                frame = frame.join(right, on=(), how="cross")
        assert frame is not None
        for filter_expression in query.filters:
            frame = frame.filter(SparqlCondition(filter_expression))
        frame = frame.select(*[v.name for v in query.projection])
        if query.distinct:
            frame = frame.distinct()
        return frame

    def _pattern_frame(self, pattern: TriplePattern) -> DataFrame:
        from ..engine.expressions import col, lit

        frame = self.session.table("sde_triples")
        if isinstance(pattern.predicate, Variable):
            name = pattern.predicate.name
            repeated = any(
                isinstance(slot, Variable) and slot.name == name
                for slot in (pattern.subject, pattern.object)
            )
            if repeated:
                # ``?p ?p ?o`` / ``?s ?p ?p``: the predicate equals another
                # slot, so constrain in place and let the subject/object
                # column carry the binding.
                if isinstance(pattern.subject, Variable) and pattern.subject.name == name:
                    frame = frame.filter(col("s") == col("p"))
                if isinstance(pattern.object, Variable) and pattern.object.name == name:
                    frame = frame.filter(col("o") == col("p"))
                return shape_vp_frame(self.session, frame.select("s", "o"), pattern)
            renamed = frame.rename({"p": name})
            return shape_vp_frame(self.session, renamed, pattern, keep=[name])
        frame = frame.filter(col("p") == lit(encode_term(pattern.predicate)))
        return shape_vp_frame(self.session, frame.select("s", "o"), pattern)

    def sparql(self, query: str | SelectQuery) -> ResultSet:
        """Execute a SELECT query; see :class:`ResultSet`."""
        parsed = parse_sparql(query) if isinstance(query, str) else query
        if parsed.optional_groups or parsed.is_union:
            raise UnsupportedSparqlError(
                "the SPARQLGX-SDE baseline evaluates plain basic graph patterns only"
            )
        started = time.perf_counter()
        frame = self.dataframe(parsed)
        data, engine_report = frame.collect_data_with_report(run_optimizer=False)
        rows = finalize_solutions(parsed, data)
        report = QueryExecutionReport(
            simulated_sec=engine_report.simulated_sec,
            wall_clock_sec=time.perf_counter() - started,
            engine_report=engine_report,
        )
        self.last_query_report_ = report
        return ResultSet(tuple(v.name for v in parsed.projection), rows, report)

    def explain(self, query: str | SelectQuery, analyze: bool = False) -> str:
        """Plan-shape EXPLAIN: every pattern scans the whole triple file.

        With ``analyze``, the query executes under a tracer and the plan
        gains per-operator actual row counts and shuffle bytes.
        """
        parsed = parse_sparql(query) if isinstance(query, str) else query
        if parsed.optional_groups or parsed.is_union:
            raise UnsupportedSparqlError(
                "the SPARQLGX-SDE baseline evaluates plain basic graph patterns only"
            )
        frame = self.dataframe(parsed)
        if analyze:
            from ..obs.tracer import Tracer

            _, engine_report = frame.collect_with_report(
                run_optimizer=False, tracer=Tracer()
            )
            return f"== Engine Plan ==\n{engine_report.explain()}"
        return f"== Engine Plan ==\n{frame.explain(optimized=False)}"

    def last_query_report(self) -> QueryExecutionReport | None:
        return self.last_query_report_
