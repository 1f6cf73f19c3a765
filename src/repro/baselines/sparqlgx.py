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
from ..core.executor import shape_vp_frame
from ..core.loader import LoadReport, estimate_load_seconds
from ..core.naming import assign_names
from ..engine.cluster import SCAN_BYTES_PER_SEC, ClusterConfig, SimulatedCluster
from ..engine.dataframe import DataFrame
from ..engine.session import EngineSession
from ..rdf.graph import Graph
from ..rdf.stats import GraphStatistics, collect_statistics
from ..sparql.algebra import SelectQuery, TriplePattern, Variable
from .plans import CompiledBaseline, pattern_cardinality

_VP_SCHEMA = TableSchema([ColumnSchema("s", "string"), ColumnSchema("o", "string")])


class SparqlGx(CompiledBaseline):
    """VP-only, statistics-ordered, shuffle-join SPARQL processor."""

    name = "SPARQLGX"
    # RDD joins have no broadcast strategy, and no Catalyst rewrites the
    # compiled plan (no pushdown, no pruning).
    join_hint = "shuffle"
    run_optimizer = False

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
        self._vp_tables: dict[str, str] = {}

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
            self._vp_tables[predicate.value] = table_name
        report = LoadReport(
            system=self.name,
            stored_bytes=text_bytes,
            tables_written=len(self._vp_tables),
            triples_loaded=len(graph),
            simulated_sec=estimate_load_seconds(
                self.session,
                text_bytes,
                len(graph),
                shuffles=1,
                table_jobs=len(self._vp_tables),
                # Loading is a plain text transform; the RDD query-side
                # slowdown does not apply to it.
                rows_per_sec=self.session.config.rows_per_sec * self.RDD_SLOWDOWN,
            ),
            wall_clock_sec=time.perf_counter() - started,
        )
        self.load_report = report
        return report

    # -- querying ----------------------------------------------------------------

    def _pattern_order(
        self, query: SelectQuery
    ) -> list[tuple[TriplePattern, str | None]]:
        """SPARQLGX's own statistics: ascending estimated cardinality."""
        assert self.statistics is not None
        ordered = sorted(
            query.patterns,
            key=lambda pattern: pattern_cardinality(self.statistics, pattern),
        )
        return [(pattern, None) for pattern in ordered]


class SparqlGxDirect(CompiledBaseline):
    """SPARQLGX's *direct evaluator* (SDE): no preprocessing at all.

    The SPARQLGX paper ships a second mode that evaluates SPARQL straight
    off the raw triple file — no Vertical Partitioning, no statistics.
    Loading is a plain file copy (near-instant); every triple pattern scans
    the *whole* triple file, so queries pay for what loading saved. Useful
    when a dataset is queried once or twice and never again.
    """

    name = "SPARQLGX-SDE"
    join_hint = SparqlGx.join_hint
    run_optimizer = SparqlGx.run_optimizer

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

    def _pattern_order(
        self, query: SelectQuery
    ) -> list[tuple[TriplePattern, str | None]]:
        """No statistics: the query's own pattern order."""
        return [(pattern, None) for pattern in query.patterns]

    def _pattern_frame(self, pattern: TriplePattern, table: str | None) -> DataFrame:
        """Each pattern is a full scan of the triple file plus selections."""
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
