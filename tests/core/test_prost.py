"""End-to-end PRoST tests: queries against the reference evaluator."""

import pytest

from repro.core import ProstEngine
from repro.engine import ColumnarData
from repro.errors import LoaderError
from repro.vector import ColumnBatch
from repro.rdf import Graph, IRI, Literal
from repro.sparql import parse_sparql

from ..conftest import SOCIAL_QUERIES


class TestAgainstReference:
    @pytest.mark.parametrize("query", SOCIAL_QUERIES)
    def test_mixed_matches_reference(self, prost_mixed, social_reference, query):
        parsed = parse_sparql(query)
        assert prost_mixed.sparql(parsed).rows == social_reference.evaluate(parsed)

    @pytest.mark.parametrize("query", SOCIAL_QUERIES)
    def test_vp_matches_reference(self, prost_vp, social_reference, query):
        parsed = parse_sparql(query)
        assert prost_vp.sparql(parsed).rows == social_reference.evaluate(parsed)


class TestStoredForm:
    """The catalog keeps the column batches the executor reads."""

    #: Two Property Table nodes, each filtered directly over its scan (a
    #: bound object, NOT NULL columns) — the filter selections are what the
    #: executor memoizes on the scanned batches.
    QUERY = (
        "SELECT ?n ?t WHERE { ?x <http://ex/city> <http://ex/berlin> . "
        "?x <http://ex/tag> ?t . ?x <http://ex/knows> ?y . "
        "?y <http://ex/name> ?n . ?y <http://ex/age> ?a }"
    )

    @staticmethod
    def _memo_entries(catalog):
        """Every ``bytes_cache`` entry reachable from the catalog: the stored
        batches, their cached column-subset views, and any batch memoized
        inside one of those caches (explode outputs)."""
        entries = set()
        pending = [
            batch
            for name in catalog.names()
            for data in (catalog.get(name).data, *catalog.get(name).column_views.values())
            for batch in data.batches
        ]
        while pending:
            batch = pending.pop()
            for key, value in batch.bytes_cache.items():
                entries.add((id(batch), key))
                if isinstance(value, ColumnBatch):
                    pending.append(value)
        return entries

    def test_stored_batches_are_unselected_and_memos_hit(self, social_graph):
        engine = ProstEngine(strategy="mixed")
        engine.load(social_graph)
        catalog = engine.session.catalog
        for name in catalog.names():
            data = catalog.get(name).data
            assert isinstance(data, ColumnarData), name
            assert all(batch.sel is None for batch in data.batches), name
        first = engine.sparql(self.QUERY).rows
        assert first
        warm = self._memo_entries(catalog)
        assert "filter" in {key[0] for _, key in warm if isinstance(key, tuple)}
        # Every memo is gated on ``sel is None`` and lives on the batch
        # object scanned: a stored selection view would never memoize, and a
        # fresh view per scan would memoize somewhere no later scan looks.
        assert engine.sparql(self.QUERY).rows == first
        assert self._memo_entries(catalog) == warm


class TestModifiers:
    def test_order_by_desc(self, prost_mixed):
        rows = prost_mixed.sparql(
            "SELECT ?n WHERE { ?x <http://ex/name> ?n } ORDER BY DESC(?n)"
        ).rows
        names = [row[0].lexical for row in rows]
        assert names == sorted(names, reverse=True)

    def test_limit_offset(self, prost_mixed):
        all_rows = prost_mixed.sparql("SELECT ?n WHERE { ?x <http://ex/name> ?n }").rows
        sliced = prost_mixed.sparql(
            "SELECT ?n WHERE { ?x <http://ex/name> ?n } LIMIT 2 OFFSET 1"
        ).rows
        assert sliced == all_rows[1:3]

    def test_distinct(self, prost_mixed):
        rows = prost_mixed.sparql(
            "SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y }"
        ).rows
        assert len(rows) == len(set(rows)) == 3


class TestResultSet:
    def test_to_dicts(self, prost_mixed):
        result = prost_mixed.sparql("SELECT ?n WHERE { <http://ex/alice> <http://ex/name> ?n }")
        assert result.to_dicts() == [{"n": Literal("Alice")}]

    def test_len_and_iter(self, prost_mixed):
        result = prost_mixed.sparql("SELECT ?n WHERE { ?x <http://ex/name> ?n }")
        assert len(result) == 4
        assert len(list(result)) == 4

    def test_variables_ordered_by_projection(self, prost_mixed):
        result = prost_mixed.sparql(
            "SELECT ?n ?x WHERE { ?x <http://ex/name> ?n }"
        )
        assert result.variables == ("n", "x")


class TestReports:
    def test_query_report_populated(self, prost_mixed):
        result = prost_mixed.sparql("SELECT ?n WHERE { ?x <http://ex/name> ?n }")
        report = result.report
        assert report.simulated_sec > 0
        assert report.wall_clock_sec > 0
        assert "VP" in report.join_tree or "PT" in report.join_tree
        assert report.engine_report is not None
        assert prost_mixed.last_query_report() is report

    def test_explain_contains_tree_and_plan(self, prost_mixed):
        text = prost_mixed.explain(
            "SELECT ?x WHERE { ?x <http://ex/name> ?n . ?x <http://ex/age> ?a }"
        )
        assert "Join Tree" in text and "Engine Plan" in text

    def test_load_report_summary(self, social_graph):
        engine = ProstEngine()
        report = engine.load(social_graph)
        assert report.triples_loaded == len(social_graph)


class TestErrorHandling:
    def test_query_before_load_rejected(self):
        with pytest.raises(LoaderError):
            ProstEngine().sparql("SELECT ?s WHERE { ?s <http://ex/p> ?o }")

    def test_unknown_predicate_returns_empty(self, prost_mixed):
        rows = prost_mixed.sparql("SELECT ?s WHERE { ?s <http://ex/nope> ?o }").rows
        assert rows == []

    def test_unknown_predicate_in_star_returns_empty(self, prost_mixed):
        rows = prost_mixed.sparql(
            "SELECT ?s WHERE { ?s <http://ex/nope> ?o . ?s <http://ex/name> ?n }"
        ).rows
        assert rows == []


class TestObjectPropertyTable:
    def test_object_pt_strategy_matches_reference(self, social_graph, social_reference):
        engine = ProstEngine(use_object_property_table=True)
        engine.load(social_graph)
        for query in SOCIAL_QUERIES:
            parsed = parse_sparql(query)
            assert engine.sparql(parsed).rows == social_reference.evaluate(parsed)

    def test_object_group_uses_object_pt(self, social_graph):
        engine = ProstEngine(use_object_property_table=True)
        engine.load(social_graph)
        tree = engine.translate(
            "SELECT ?y WHERE { ?a <http://ex/knows> ?y . ?b <http://ex/city> ?y }"
        )
        assert "ObjectPT" in tree.describe()


class TestExtendedStatistics:
    def test_extended_stats_strategy_matches_reference(self, social_graph, social_reference):
        engine = ProstEngine(statistics_level="extended")
        engine.load(social_graph)
        for query in SOCIAL_QUERIES:
            parsed = parse_sparql(query)
            assert engine.sparql(parsed).rows == social_reference.evaluate(parsed)
