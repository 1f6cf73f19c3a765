"""Graph container tests: set semantics, grouped views, serialization."""

from repro.rdf import Graph, IRI, Literal, Triple


def _triple(s: str, p: str, o: str) -> Triple:
    return Triple(IRI(s), IRI(p), IRI(o))


class TestConstruction:
    def test_duplicates_are_deduplicated(self):
        t = _triple("http://ex/a", "http://ex/p", "http://ex/b")
        graph = Graph([t, t, t])
        assert len(graph) == 1

    def test_add_reports_novelty(self):
        graph = Graph()
        t = _triple("http://ex/a", "http://ex/p", "http://ex/b")
        assert graph.add(t) is True
        assert graph.add(t) is False

    def test_update_counts_new_triples(self):
        graph = Graph()
        t1 = _triple("http://ex/a", "http://ex/p", "http://ex/b")
        t2 = _triple("http://ex/a", "http://ex/p", "http://ex/c")
        assert graph.update([t1, t2, t1]) == 2

    def test_contains(self):
        t = _triple("http://ex/a", "http://ex/p", "http://ex/b")
        graph = Graph([t])
        assert t in graph
        assert _triple("http://ex/x", "http://ex/p", "http://ex/b") not in graph


class TestViews:
    def setup_method(self):
        self.graph = Graph(
            [
                _triple("http://ex/a", "http://ex/p", "http://ex/b"),
                _triple("http://ex/a", "http://ex/p", "http://ex/c"),
                _triple("http://ex/a", "http://ex/q", "http://ex/d"),
                _triple("http://ex/b", "http://ex/p", "http://ex/c"),
            ]
        )

    def test_predicates_sorted(self):
        assert self.graph.predicates == [IRI("http://ex/p"), IRI("http://ex/q")]

    def test_subjects_sorted(self):
        assert self.graph.subjects == [IRI("http://ex/a"), IRI("http://ex/b")]

    def test_triples_with_predicate(self):
        triples = self.graph.triples_with_predicate(IRI("http://ex/p"))
        assert len(triples) == 3
        assert all(t.predicate == IRI("http://ex/p") for t in triples)

    def test_triples_with_unknown_predicate_is_empty(self):
        assert self.graph.triples_with_predicate(IRI("http://ex/zzz")) == []

    def test_triples_with_subject(self):
        triples = self.graph.triples_with_subject(IRI("http://ex/a"))
        assert len(triples) == 3

    def test_objects_for_pair(self):
        objects = self.graph.objects(IRI("http://ex/a"), IRI("http://ex/p"))
        assert objects == [IRI("http://ex/b"), IRI("http://ex/c")]


class TestSerialization:
    def test_to_ntriples_is_sorted_and_parseable(self):
        graph = Graph(
            [
                _triple("http://ex/b", "http://ex/p", "http://ex/c"),
                _triple("http://ex/a", "http://ex/p", "http://ex/b"),
            ]
        )
        text = graph.to_ntriples()
        assert text.index("http://ex/a") < text.index("http://ex/b>")
        assert len(Graph.from_ntriples(text)) == 2

    def test_round_trip_with_literals(self):
        graph = Graph(
            [Triple(IRI("http://ex/a"), IRI("http://ex/p"), Literal("x\ny", language="en"))]
        )
        again = Graph.from_ntriples(graph.to_ntriples())
        assert set(again) == set(graph)
