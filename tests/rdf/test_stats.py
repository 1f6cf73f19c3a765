"""Statistics collector tests: the paper's two statistics plus extensions."""

import pytest

from repro.rdf import Graph, collect_statistics


GRAPH = Graph.from_ntriples(
    """
<http://ex/a> <http://ex/likes> <http://ex/x> .
<http://ex/a> <http://ex/likes> <http://ex/y> .
<http://ex/b> <http://ex/likes> <http://ex/x> .
<http://ex/a> <http://ex/name> "A" .
<http://ex/b> <http://ex/name> "B" .
<http://ex/c> <http://ex/age> "1"^^<http://www.w3.org/2001/XMLSchema#integer> .
"""
)


class TestSimpleStatistics:
    def setup_method(self):
        self.stats = collect_statistics(GRAPH)

    def test_totals(self):
        assert self.stats.total_triples == 6
        assert self.stats.total_subjects == 3

    def test_triple_count_per_predicate(self):
        assert self.stats.for_predicate("http://ex/likes").triple_count == 3
        assert self.stats.for_predicate("http://ex/name").triple_count == 2

    def test_distinct_subjects_per_predicate(self):
        assert self.stats.for_predicate("http://ex/likes").distinct_subjects == 2

    def test_distinct_objects_per_predicate(self):
        assert self.stats.for_predicate("http://ex/likes").distinct_objects == 2

    def test_multivalued_detection(self):
        assert self.stats.for_predicate("http://ex/likes").is_multivalued
        assert not self.stats.for_predicate("http://ex/name").is_multivalued

    def test_unknown_predicate_gets_empty_stats(self):
        stats = self.stats.for_predicate("http://ex/zzz")
        assert stats.triple_count == 0
        assert not stats.is_multivalued

    def test_characteristic_sets_absent_at_simple_level(self):
        assert self.stats.characteristic_sets is None
        assert self.stats.star_subject_estimate({"http://ex/likes"}) is None


class TestExtendedStatistics:
    def setup_method(self):
        self.stats = collect_statistics(GRAPH, level="extended")

    def test_characteristic_sets_counted(self):
        sets = self.stats.characteristic_sets
        assert sets[frozenset({"http://ex/likes", "http://ex/name"})] == 2
        assert sets[frozenset({"http://ex/age"})] == 1

    def test_star_subject_estimate_sums_supersets(self):
        assert self.stats.star_subject_estimate({"http://ex/likes"}) == 2
        assert self.stats.star_subject_estimate(
            {"http://ex/likes", "http://ex/name"}
        ) == 2
        assert self.stats.star_subject_estimate({"http://ex/age"}) == 1
        assert self.stats.star_subject_estimate(
            {"http://ex/age", "http://ex/likes"}
        ) == 0


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        collect_statistics(GRAPH, level="fancy")


def test_empty_graph_statistics():
    stats = collect_statistics(Graph())
    assert stats.total_triples == 0
    assert stats.predicates == {}
