"""Loading RDF graphs into PRoST's two data structures (paper §3.1).

``load_vertical_partitioning`` creates one ``(s, o)`` table per predicate;
``load_property_table`` creates the single wide table with one row per
subject, one column per predicate (list-typed when the predicate is
multi-valued anywhere in the graph), horizontally partitioned on the subject
column so each subject's row lives on one node.

Both persist through the columnar store, so run-length/dictionary encoding
shrinks the NULL-heavy Property Table exactly as Parquet does for PRoST.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..columnar.schema import ColumnSchema, TableSchema
from ..engine.cluster import NETWORK_BYTES_PER_SEC, SCAN_BYTES_PER_SEC
from ..engine.session import EngineSession
from ..errors import LoaderError
from ..rdf.graph import Graph
from ..rdf.stats import GraphStatistics, collect_statistics
from ..rdf.stats_io import save_statistics
from ..rdf.terms import Literal, Term
from .encoding import TermId, cell_for_text
from .naming import assign_names

#: Reserved column name for the subject in both layouts.
SUBJECT_COLUMN = "s"
#: Object column name in VP tables.
OBJECT_COLUMN = "o"


@dataclass(frozen=True)
class LoadReport:
    """What loading cost and produced (one per loaded system).

    ``simulated_sec`` uses the cluster cost model: bytes written at disk
    bandwidth, plus one network shuffle per re-grouping of the triples
    (by predicate for VP, by subject for the PT).
    """

    system: str
    stored_bytes: int
    tables_written: int
    triples_loaded: int
    simulated_sec: float
    wall_clock_sec: float

    def summary(self) -> str:
        return (
            f"{self.system}: {self.stored_bytes / 1e6:.2f} MB in "
            f"{self.tables_written} tables, {self.triples_loaded} triples, "
            f"simulated {self.simulated_sec:.1f}s"
        )


@dataclass
class VpTableInfo:
    """Catalog facts about one VP table."""

    predicate: str
    table_name: str
    row_count: int


@dataclass
class PropertyTableInfo:
    """Catalog facts about the Property Table.

    Attributes:
        table_name: catalog name.
        column_for_predicate: predicate IRI → PT column name.
        multivalued: predicate IRIs stored as list columns.
    """

    table_name: str
    column_for_predicate: dict[str, str]
    multivalued: set[str]
    row_count: int = 0

    def column(self, predicate: str) -> str | None:
        return self.column_for_predicate.get(predicate)

    def is_multivalued(self, predicate: str) -> bool:
        return predicate in self.multivalued


@dataclass
class ProstStore:
    """Everything PRoST knows after loading a graph."""

    session: EngineSession
    statistics: GraphStatistics
    vp_tables: dict[str, VpTableInfo] = field(default_factory=dict)
    property_table: PropertyTableInfo | None = None
    object_property_table: PropertyTableInfo | None = None
    load_report: LoadReport | None = None

    def vp_table_name(self, predicate: str) -> str | None:
        info = self.vp_tables.get(predicate)
        return info.table_name if info else None


class TermCells(dict):
    """``Term`` → runtime cell for one load of one graph, filled on first use.

    The loaders meet every term once per table it appears in; its
    serialization is built and interned on the first meeting only. IDs are
    handed out by the dictionary in first-interned order, so sharing one
    instance between the loaders changes no ID.
    """

    def __init__(self, graph: Graph):
        super().__init__()
        self._sort_key = graph.sort_key

    def __missing__(self, term: Term) -> TermId:
        # A literal's sort key carries its n3() text (see term_sort_key), and
        # the graph built it to order the triples being loaded.
        text = self._sort_key(term)[1] if isinstance(term, Literal) else term.n3()
        cell = self[term] = cell_for_text(text)
        return cell


def load_vertical_partitioning(
    session: EngineSession,
    graph: Graph,
    path_prefix: str = "/prost/vp",
    table_prefix: str = "vp_",
    allowed_encodings: tuple[str, ...] | None = None,
    compress_pages: bool = True,
    cells: TermCells | None = None,
) -> dict[str, VpTableInfo]:
    """Create one subject/object table per predicate; returns per-table info.

    ``cells`` shares term interning with the other loaders of the same load.
    """
    cells = TermCells(graph) if cells is None else cells
    vp_schema = TableSchema(
        [ColumnSchema(SUBJECT_COLUMN, "string"), ColumnSchema(OBJECT_COLUMN, "string")]
    )
    predicate_iris = [predicate.value for predicate in graph.predicates]
    names = assign_names(predicate_iris)
    tables: dict[str, VpTableInfo] = {}
    for predicate in graph.predicates:
        rows = [
            (cells[triple.subject], cells[triple.object])
            for triple in graph.triples_with_predicate(predicate)
        ]
        table_name = table_prefix + names[predicate.value]
        session.register_rows(
            table_name,
            vp_schema,
            rows,
            partition_columns=(SUBJECT_COLUMN,),
            persist_path=f"{path_prefix}/{names[predicate.value]}",
            allowed_encodings=allowed_encodings,
            compress_pages=compress_pages,
        )
        tables[predicate.value] = VpTableInfo(
            predicate=predicate.value, table_name=table_name, row_count=len(rows)
        )
    return tables


def load_property_table(
    session: EngineSession,
    graph: Graph,
    statistics: GraphStatistics,
    path: str = "/prost/property_table",
    table_name: str = "property_table",
    allowed_encodings: tuple[str, ...] | None = None,
    compress_pages: bool = True,
    cells: TermCells | None = None,
) -> PropertyTableInfo:
    """Create the single wide table with one row per distinct subject.

    Single-valued predicates become nullable string columns; predicates that
    are multi-valued for *any* subject become ``list<string>`` columns
    (paper §3.1: values "stored using lists that need to be flattened").
    ``cells`` shares term interning with the other loaders of the same load.
    """
    cells = TermCells(graph) if cells is None else cells
    predicate_iris = sorted(statistics.predicates)
    if not predicate_iris:
        raise LoaderError("cannot build a property table for an empty graph")
    names = assign_names(predicate_iris, reserved={SUBJECT_COLUMN, OBJECT_COLUMN})
    multivalued = {
        iri for iri in predicate_iris if statistics.predicates[iri].is_multivalued
    }
    columns = [ColumnSchema(SUBJECT_COLUMN, "string")]
    for iri in predicate_iris:
        column_type = "list<string>" if iri in multivalued else "string"
        columns.append(ColumnSchema(names[iri], column_type))
    schema = TableSchema(columns)

    rows: list[tuple] = []
    for subject in graph.subjects:
        row: list = [cells[subject]]
        triples = graph.triples_with_subject(subject)
        by_predicate: dict[str, list[TermId]] = {}
        for triple in triples:
            by_predicate.setdefault(triple.predicate.value, []).append(
                cells[triple.object]
            )
        for iri in predicate_iris:
            values = by_predicate.get(iri)
            if values is None:
                row.append(None)
            elif iri in multivalued:
                row.append(values)
            else:
                row.append(values[0])
        rows.append(tuple(row))

    session.register_rows(
        table_name,
        schema,
        rows,
        partition_columns=(SUBJECT_COLUMN,),
        persist_path=path,
        allowed_encodings=allowed_encodings,
        compress_pages=compress_pages,
    )
    return PropertyTableInfo(
        table_name=table_name,
        column_for_predicate={iri: names[iri] for iri in predicate_iris},
        multivalued=multivalued,
        row_count=len(rows),
    )


def load_object_property_table(
    session: EngineSession,
    graph: Graph,
    statistics: GraphStatistics,
    path: str = "/prost/object_property_table",
    table_name: str = "object_property_table",
    allowed_encodings: tuple[str, ...] | None = None,
    cells: TermCells | None = None,
) -> PropertyTableInfo:
    """Future-work variant (paper §5): rows keyed by *object*, one column per
    predicate holding the subjects. Every column is list-typed because many
    subjects can share an object. ``cells`` shares term interning with the
    other loaders of the same load."""
    cells = TermCells(graph) if cells is None else cells
    predicate_iris = sorted(statistics.predicates)
    if not predicate_iris:
        raise LoaderError("cannot build an object property table for an empty graph")
    names = assign_names(predicate_iris, reserved={SUBJECT_COLUMN, OBJECT_COLUMN})
    columns = [ColumnSchema(OBJECT_COLUMN, "string")]
    columns.extend(ColumnSchema(names[iri], "list<string>") for iri in predicate_iris)
    schema = TableSchema(columns)

    by_object: dict[TermId, dict[str, list[TermId]]] = {}
    for triple in graph:
        cell = cells[triple.object]
        by_object.setdefault(cell, {}).setdefault(triple.predicate.value, []).append(
            cells[triple.subject]
        )
    rows = []
    for object_cell in sorted(by_object):
        groups = by_object[object_cell]
        row: list = [object_cell]
        for iri in predicate_iris:
            values = groups.get(iri)
            row.append(sorted(values) if values else None)
        rows.append(tuple(row))

    session.register_rows(
        table_name,
        schema,
        rows,
        partition_columns=(OBJECT_COLUMN,),
        persist_path=path,
        allowed_encodings=allowed_encodings,
    )
    return PropertyTableInfo(
        table_name=table_name,
        column_for_predicate={iri: names[iri] for iri in predicate_iris},
        multivalued=set(predicate_iris),
        row_count=len(rows),
    )


#: Approximate N-Triples text bytes per triple (for input re-scan costs).
INPUT_BYTES_PER_TRIPLE = 60

#: Spark job submission + scheduling overhead per loading job, seconds.
LOAD_JOB_OVERHEAD_SEC = 12.0


def estimate_load_seconds(
    session: EngineSession,
    bytes_written: int,
    triples: int,
    shuffles: int,
    table_jobs: int = 1,
    rows_per_sec: float | None = None,
) -> float:
    """Cost-model loading time.

    The dominant term mirrors how PRoST (and SPARQLGX) actually load: **one
    Spark job per output table**, each re-scanning the N-Triples input. On
    top of that: the re-grouping shuffles (by predicate for VP, by subject
    for the PT), the write of the output bytes, and per-row CPU.

    Args:
        shuffles: how many times the full triple set crosses the network.
        table_jobs: loading jobs launched (≈ output tables).
        rows_per_sec: per-worker row rate override (loading is plain
            transformation work, independent of any query-side slowdown).
    """
    config = session.config
    scale = config.data_scale
    rate = rows_per_sec if rows_per_sec is not None else config.rows_per_sec
    input_bytes = triples * INPUT_BYTES_PER_TRIPLE
    rescan_sec = (
        table_jobs
        * scale
        * input_bytes
        / (SCAN_BYTES_PER_SEC * config.num_workers)
    )
    job_overhead_sec = table_jobs * LOAD_JOB_OVERHEAD_SEC
    write_sec = scale * bytes_written / (SCAN_BYTES_PER_SEC * config.num_workers)
    shuffle_bytes = shuffles * input_bytes
    shuffle_sec = (
        scale * 2 * shuffle_bytes / (NETWORK_BYTES_PER_SEC * config.num_workers)
    )
    cpu_sec = scale * triples * (1 + shuffles) / (rate * config.num_workers)
    return rescan_sec + job_overhead_sec + write_sec + shuffle_sec + cpu_sec


def _maybe_span(tracer, name: str, **attrs):
    """A tracer span when tracing, a no-op context manager otherwise."""
    return tracer.span(name, **attrs) if tracer is not None else nullcontext()


def load_prost_store(
    graph: Graph,
    session: EngineSession | None = None,
    statistics_level: str = "simple",
    include_property_table: bool = True,
    include_object_property_table: bool = False,
    allowed_encodings: tuple[str, ...] | None = None,
    compress_pages: bool = True,
    tracer=None,
) -> ProstStore:
    """Load a graph into a fresh (or given) engine session, PRoST-style.

    Args:
        include_property_table: disable to get the VP-only configuration used
            as the baseline in Figure 2.
        include_object_property_table: additionally build the future-work
            object-keyed PT (paper §5).
        allowed_encodings: restrict columnar encodings (the encoding ablation
            passes ``("plain",)``).
        tracer: optional :class:`~repro.obs.tracer.Tracer`; each loading
            phase (statistics, VP tables, property tables) gets a span.
    """
    session = session or EngineSession()
    started = time.perf_counter()
    with _maybe_span(tracer, "load", triples=len(graph)):
        with _maybe_span(tracer, "collect_statistics", level=statistics_level):
            statistics = collect_statistics(graph, level=statistics_level)
            # Persist the statistics next to the data, as PRoST's loader
            # does, so a later session can translate without re-scanning
            # the graph.
            save_statistics(session.hdfs, "/prost/statistics.json", statistics)
        store = ProstStore(session=session, statistics=statistics)
        cells = TermCells(graph)  # one interning memo for every table of this load
        with _maybe_span(tracer, "load_vertical_partitioning") as vp_span:
            store.vp_tables = load_vertical_partitioning(
                session, graph, allowed_encodings=allowed_encodings,
                compress_pages=compress_pages, cells=cells,
            )
            if vp_span is not None:
                vp_span.set("tables", len(store.vp_tables))
        tables_written = len(store.vp_tables)
        shuffles = 1  # group by predicate
        if include_property_table:
            with _maybe_span(tracer, "load_property_table") as pt_span:
                store.property_table = load_property_table(
                    session, graph, statistics, allowed_encodings=allowed_encodings,
                    compress_pages=compress_pages, cells=cells,
                )
                if pt_span is not None:
                    pt_span.set("rows", store.property_table.row_count)
            tables_written += 1
            shuffles += 1  # group by subject
        object_pt: PropertyTableInfo | None = None
        if include_object_property_table:
            with _maybe_span(tracer, "load_object_property_table"):
                object_pt = load_object_property_table(
                    session, graph, statistics, allowed_encodings=allowed_encodings,
                    cells=cells,
                )
            tables_written += 1
            shuffles += 1  # group by object
        store.object_property_table = object_pt
    stored = session.catalog.total_stored_bytes()
    report = LoadReport(
        system="PRoST" if include_property_table else "PRoST (VP only)",
        stored_bytes=stored,
        tables_written=tables_written,
        triples_loaded=len(graph),
        simulated_sec=estimate_load_seconds(
            session, stored, len(graph), shuffles, table_jobs=tables_written
        ),
        wall_clock_sec=time.perf_counter() - started,
    )
    store.load_report = report
    return store
