"""Join-tree executor tests: node plans and edge cases."""

import pytest

from repro.core import JoinTreeExecutor, ProstEngine
from repro.rdf import Graph, IRI, Literal
from repro.sparql import parse_sparql


NT = """
<http://ex/a> <http://ex/likes> <http://ex/x> .
<http://ex/a> <http://ex/likes> <http://ex/y> .
<http://ex/b> <http://ex/likes> <http://ex/x> .
<http://ex/a> <http://ex/name> "A" .
<http://ex/b> <http://ex/name> "B" .
<http://ex/x> <http://ex/self> <http://ex/x> .
"""


@pytest.fixture(scope="module")
def engine():
    prost = ProstEngine()
    prost.load(Graph.from_ntriples(NT))
    return prost


def run(engine, query: str):
    return engine.sparql(query).rows


class TestVpNodePlans:
    def test_constant_subject(self, engine):
        rows = run(engine, "SELECT ?o WHERE { <http://ex/a> <http://ex/likes> ?o }")
        assert [r[0] for r in rows] == [IRI("http://ex/x"), IRI("http://ex/y")]

    def test_constant_object(self, engine):
        rows = run(engine, "SELECT ?s WHERE { ?s <http://ex/likes> <http://ex/x> }")
        assert {r[0] for r in rows} == {IRI("http://ex/a"), IRI("http://ex/b")}

    def test_fully_bound_pattern_as_existence_check(self, engine):
        rows = run(
            engine,
            "SELECT ?n WHERE { <http://ex/a> <http://ex/likes> <http://ex/x> . "
            "?x <http://ex/name> ?n }",
        )
        assert len(rows) == 2  # existence holds: all names returned

    def test_fully_bound_pattern_failing_kills_query(self, engine):
        rows = run(
            engine,
            "SELECT ?n WHERE { <http://ex/a> <http://ex/likes> <http://ex/zzz> . "
            "?x <http://ex/name> ?n }",
        )
        assert rows == []

    def test_same_variable_subject_and_object(self, engine):
        rows = run(engine, "SELECT ?x WHERE { ?x <http://ex/self> ?x }")
        assert rows == [(IRI("http://ex/x"),)]

    def test_variable_predicate_returns_tagged_rows(self, engine):
        rows = run(engine, "SELECT ?p WHERE { <http://ex/b> ?p ?o }")
        assert {r[0].value for r in rows} == {"http://ex/likes", "http://ex/name"}


class TestPtNodePlans:
    def test_star_with_multivalued_explode(self, engine):
        rows = run(
            engine,
            "SELECT ?o ?n WHERE { ?s <http://ex/likes> ?o . ?s <http://ex/name> ?n }",
        )
        assert (IRI("http://ex/y"), Literal("A")) in rows
        assert len(rows) == 3

    def test_star_with_constant_in_multivalued(self, engine):
        rows = run(
            engine,
            "SELECT ?n WHERE { ?s <http://ex/likes> <http://ex/y> . ?s <http://ex/name> ?n }",
        )
        assert rows == [(Literal("A"),)]

    def test_star_with_constant_subject(self, engine):
        rows = run(
            engine,
            "SELECT ?o ?n WHERE { <http://ex/a> <http://ex/likes> ?o . "
            "<http://ex/a> <http://ex/name> ?n }",
        )
        assert len(rows) == 2

    def test_same_predicate_twice_in_star(self, engine):
        rows = run(
            engine,
            "SELECT ?o1 ?o2 WHERE { ?s <http://ex/likes> ?o1 . ?s <http://ex/likes> ?o2 }",
        )
        # a: 2×2 combinations, b: 1×1.
        assert len(rows) == 5

    def test_repeated_object_variable_in_star(self, engine):
        rows = run(
            engine,
            "SELECT ?s WHERE { ?s <http://ex/likes> ?o . ?s <http://ex/self> ?o }",
        )
        assert rows == []  # nothing likes itself in the data

    def test_pt_requires_property_table(self):
        from repro.core.join_tree import JoinTree, PtNode
        from repro.core.loader import load_prost_store
        from repro.errors import TranslationError
        from repro.sparql.algebra import TriplePattern, Variable

        store = load_prost_store(
            Graph.from_ntriples(NT), include_property_table=False
        )
        pattern = TriplePattern(Variable("s"), IRI("http://ex/name"), Variable("n"))
        node = PtNode(patterns=(pattern, pattern))
        with pytest.raises(TranslationError):
            JoinTreeExecutor(store).build(JoinTree(root=node))


class TestLimitDecodesOnlyKeptRows:
    QUERY = "SELECT ?s ?o WHERE { ?s wsdbm:follows ?o }"

    def _decoded(self, engine, query, monkeypatch):
        import repro.core.results as results_module

        real = results_module.decode_term
        calls = []

        def counting(cell):
            calls.append(cell)
            return real(cell)

        monkeypatch.setattr(results_module, "decode_term", counting)
        rows = engine.sparql(query).rows
        monkeypatch.setattr(results_module, "decode_term", real)
        return rows, len(calls)

    def test_limit_decodes_only_the_kept_cells(self, monkeypatch):
        from repro.watdiv.generator import generate_watdiv

        prost = ProstEngine()
        prost.load(generate_watdiv(scale=60).graph)
        everything, all_calls = self._decoded(prost, self.QUERY, monkeypatch)
        assert all_calls > 100  # the unsliced path decodes every distinct cell
        first, calls = self._decoded(prost, self.QUERY + " LIMIT 1", monkeypatch)
        assert first == everything[:1]
        assert calls <= 2
        window, calls = self._decoded(
            prost, self.QUERY + " LIMIT 3 OFFSET 2", monkeypatch
        )
        assert window == everything[2:5]
        assert calls <= 6

    def test_limit_decodes_one_cell_when_solutions_repeat(self, monkeypatch):
        from repro.watdiv.generator import generate_watdiv

        prost = ProstEngine()
        prost.load(generate_watdiv(scale=60).graph)
        query = "SELECT ?s WHERE { ?s wsdbm:follows ?o }"  # ?o projected away
        everything, _ = self._decoded(prost, query, monkeypatch)
        assert len(set(everything)) < len(everything)  # solutions repeat
        first, calls = self._decoded(prost, query + " LIMIT 1", monkeypatch)
        assert first == everything[:1]
        assert calls <= 1
        window, calls = self._decoded(prost, query + " LIMIT 3 OFFSET 2", monkeypatch)
        assert window == everything[2:5]
        assert calls <= 3
