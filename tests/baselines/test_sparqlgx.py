"""SPARQLGX baseline tests: storage model, compilation, correctness."""

import pytest

from repro.baselines import SparqlGx
from repro.rdf import Graph
from repro.sparql import parse_sparql

from ..conftest import SOCIAL_QUERIES


@pytest.fixture(scope="module")
def loaded(social_graph_module):
    system = SparqlGx()
    system.load(social_graph_module)
    return system


@pytest.fixture(scope="module")
def social_graph_module():
    from ..conftest import SOCIAL_NT

    return Graph.from_ntriples(SOCIAL_NT)


class TestLoading:
    def test_text_files_written_per_predicate(self, loaded):
        files = loaded.session.hdfs.list_files("/sparqlgx/vp")
        assert len(files) == 6  # six predicates in the social graph

    def test_load_report(self, loaded):
        report = loaded.load_report
        assert report.system == "SPARQLGX"
        assert report.stored_bytes > 0
        assert report.tables_written == 6


class TestQuerying:
    @pytest.mark.parametrize("query", SOCIAL_QUERIES)
    def test_matches_reference(self, loaded, social_graph_module, query):
        from repro.rdf.reference import ReferenceEvaluator

        parsed = parse_sparql(query)
        want = ReferenceEvaluator(social_graph_module).evaluate(parsed)
        assert loaded.sparql(parsed).rows == want

    def test_plans_use_shuffle_joins_only(self, loaded):
        result = loaded.sparql(
            "SELECT ?x ?c WHERE { ?x <http://ex/city> ?ci . ?ci <http://ex/country> ?c }"
        )
        metrics = result.report.engine_report.metrics
        assert metrics.broadcast_count == 0
        assert metrics.shuffle_bytes > 0

    def test_unknown_predicate_yields_empty(self, loaded):
        assert loaded.sparql("SELECT ?s WHERE { ?s <http://ex/zzz> ?o }").rows == []

    def test_variable_predicate_unions_all_tables(self, loaded, social_graph_module):
        rows = loaded.sparql("SELECT ?s ?p ?o WHERE { ?s ?p ?o }").rows
        assert len(rows) == len(social_graph_module)

    def test_report_has_no_join_tree(self, loaded):
        result = loaded.sparql("SELECT ?n WHERE { ?x <http://ex/name> ?n }")
        assert result.report.join_tree is None
