"""Loader tests: VP tables, the Property Table, and the object-keyed PT."""

import pytest

from repro.core import decode_row, decode_term, encode_term, load_prost_store
from repro.core.loader import (
    TermCells,
    load_object_property_table,
    load_property_table,
    load_vertical_partitioning,
)
from repro.engine import EngineSession
from repro.errors import LoaderError
from repro.rdf import Graph, collect_statistics
from repro.rdf.terms import IRI, Literal


NT = """
<http://ex/a> <http://ex/likes> <http://ex/x> .
<http://ex/a> <http://ex/likes> <http://ex/y> .
<http://ex/b> <http://ex/likes> <http://ex/x> .
<http://ex/a> <http://ex/name> "A" .
<http://ex/b> <http://ex/name> "B" .
<http://ex/x> <http://ex/title> "X" .
"""


@pytest.fixture
def graph():
    return Graph.from_ntriples(NT)


class TestTermCells:
    def test_cells_are_the_dictionary_ids(self, graph):
        cells = TermCells(graph)
        terms = {term for triple in graph for term in triple}
        awkward = Literal('say "hi"\n\u2028', language="en")
        for term in [*sorted(terms, key=graph.sort_key), awkward]:
            assert cells[term] == encode_term(term)
            assert decode_term(cells[term]) == term
        assert len(cells) == len(terms) + 1

    def test_one_memo_serves_every_loader_of_a_load(self, graph):
        session = EngineSession()
        cells = TermCells(graph)
        load_vertical_partitioning(session, graph, cells=cells)
        interned = dict(cells)
        load_property_table(session, graph, collect_statistics(graph), cells=cells)
        assert dict(cells) == interned  # the PT met no term VP had not


class TestVerticalPartitioning:
    def test_one_table_per_predicate(self, graph):
        session = EngineSession()
        tables = load_vertical_partitioning(session, graph)
        assert set(tables) == {"http://ex/likes", "http://ex/name", "http://ex/title"}
        assert session.catalog.has("vp_likes")

    def test_table_contents(self, graph):
        session = EngineSession()
        load_vertical_partitioning(session, graph)
        rows = session.table("vp_likes").collect()
        decoded = [decode_row(row) for row in rows]
        assert sorted(decoded, key=lambda r: (r[0].value, r[1].value)) == [
            (IRI("http://ex/a"), IRI("http://ex/x")),
            (IRI("http://ex/a"), IRI("http://ex/y")),
            (IRI("http://ex/b"), IRI("http://ex/x")),
        ]

    def test_tables_partitioned_on_subject(self, graph):
        session = EngineSession()
        load_vertical_partitioning(session, graph)
        table = session.catalog.get("vp_likes")
        assert table.data.partitioner is not None
        assert table.data.partitioner.columns == ("s",)

    def test_tables_persisted_to_hdfs(self, graph):
        session = EngineSession()
        load_vertical_partitioning(session, graph)
        assert session.hdfs.exists("/prost/vp/likes")


class TestPropertyTable:
    def test_one_row_per_subject(self, graph):
        session = EngineSession()
        stats = collect_statistics(graph)
        info = load_property_table(session, graph, stats)
        assert info.row_count == 3  # a, b, x

    def test_multivalued_column_is_list(self, graph):
        session = EngineSession()
        stats = collect_statistics(graph)
        info = load_property_table(session, graph, stats)
        assert info.is_multivalued("http://ex/likes")
        assert not info.is_multivalued("http://ex/name")
        schema = session.catalog.get(info.table_name).schema
        assert schema.column(info.column("http://ex/likes")).type == "list<string>"
        assert schema.column(info.column("http://ex/name")).type == "string"

    def test_missing_values_are_null(self, graph):
        session = EngineSession()
        stats = collect_statistics(graph)
        info = load_property_table(session, graph, stats)
        rows = session.table(info.table_name).to_dicts()
        row_x = [r for r in rows if decode_term(r["s"]) == IRI("http://ex/x")][0]
        assert row_x[info.column("http://ex/likes")] is None
        assert decode_term(row_x[info.column("http://ex/title")]) == Literal("X")

    def test_empty_graph_rejected(self):
        session = EngineSession()
        empty = Graph()
        with pytest.raises(LoaderError):
            load_property_table(session, empty, collect_statistics(empty))


class TestObjectPropertyTable:
    def test_rows_keyed_by_object(self, graph):
        session = EngineSession()
        stats = collect_statistics(graph)
        info = load_object_property_table(session, graph, stats)
        rows = session.table(info.table_name).to_dicts()
        row_x = [r for r in rows if decode_term(r["o"]) == IRI("http://ex/x")][0]
        likers = [decode_term(c) for c in row_x[info.column("http://ex/likes")]]
        assert sorted(likers, key=lambda t: t.value) == [
            IRI("http://ex/a"),
            IRI("http://ex/b"),
        ]

    def test_all_columns_are_lists(self, graph):
        session = EngineSession()
        stats = collect_statistics(graph)
        info = load_object_property_table(session, graph, stats)
        schema = session.catalog.get(info.table_name).schema
        for column in schema.columns[1:]:
            assert column.is_list


class TestFullLoad:
    def test_load_report_fields(self, graph):
        store = load_prost_store(graph)
        report = store.load_report
        assert report.triples_loaded == 6
        assert report.tables_written == 4  # 3 VP + PT
        assert report.stored_bytes > 0
        assert report.simulated_sec > 0
        assert "PRoST" in report.summary()

    def test_vp_only_load(self, graph):
        store = load_prost_store(graph, include_property_table=False)
        assert store.property_table is None
        assert store.load_report.tables_written == 3

    def test_object_pt_included_on_request(self, graph):
        store = load_prost_store(graph, include_object_property_table=True)
        assert store.object_property_table is not None

    def test_vp_table_name_lookup(self, graph):
        store = load_prost_store(graph)
        assert store.vp_table_name("http://ex/likes") == "vp_likes"
        assert store.vp_table_name("http://ex/zzz") is None
