"""Regression tests for divergences found by the differential fuzzer.

Each test inlines the *shrunken* counterexample the fuzzer reported (minimal
graph + minimal query) and asserts all engines now agree with the brute-force
oracle. Replay any of these against the harness with::

    PYTHONPATH=src python -m repro.cli fuzz --seed <seed> --iterations 1
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.baselines import Rya, S2Rdf, SparqlGx
from repro.baselines.sparqlgx import SparqlGxDirect
from repro.core import ProstEngine
from repro.rdf import Graph
from repro.sparql.parser import parse_sparql
from repro.testing import BruteForceOracle
from repro.testing.differential import ServedProstEngine, row_key

ENGINE_FACTORIES = {
    "prost-mixed": lambda: ProstEngine(strategy="mixed"),
    "prost-vp": lambda: ProstEngine(strategy="vp"),
    "prost-mixed-served": lambda: ServedProstEngine("mixed"),
    "prost-vp-served": lambda: ServedProstEngine("vp"),
    "s2rdf": S2Rdf,
    "sparqlgx": SparqlGx,
    "sparqlgx-sde": SparqlGxDirect,
    "rya": Rya,
}


def assert_matches_oracle(graph_nt: str, query_text: str, engine_name: str) -> None:
    graph = Graph.from_ntriples(graph_nt)
    query = parse_sparql(query_text)
    expected = BruteForceOracle(graph).evaluate(query)
    engine = ENGINE_FACTORIES[engine_name]()
    engine.load(graph)
    actual = engine.sparql(query).rows
    assert Counter(map(row_key, actual)) == Counter(map(row_key, expected))


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
class TestRepeatedPredicateVariable:
    """Fuzzer seed 0, query #3: a predicate variable shared with the subject
    or object slot crashed every engine except Rya (PRoST raised
    ``TranslationError: predicate variable ?v2 also used elsewhere``;
    S2RDF/SPARQLGX raised ``PlanError: duplicate output columns``). The fix
    turns the shared variable into an equality constraint against the tagged
    predicate column."""

    # Shrunken counterexample, verbatim from the fuzzer report (seed 0).
    MISS_GRAPH = (
        "<http://db.uwaterloo.ca/~galuc/wsdbm/Entity3> "
        "<http://db.uwaterloo.ca/~galuc/wsdbm/follows> "
        "<http://db.uwaterloo.ca/~galuc/wsdbm/Entity8> ."
    )

    # Graphs where the equality constraint actually selects rows.
    HIT_GRAPH = """
    <http://ex/s> <http://ex/v> <http://ex/v> .
    <http://ex/p> <http://ex/p> <http://ex/o> .
    <http://ex/x> <http://ex/x> <http://ex/x> .
    <http://ex/s> <http://ex/other> <http://ex/o2> .
    """

    def test_predicate_equals_object_no_match(self, engine_name):
        assert_matches_oracle(
            self.MISS_GRAPH, "SELECT ?v0 WHERE { ?v0 ?v2 ?v2 }", engine_name
        )

    def test_predicate_equals_object_with_match(self, engine_name):
        assert_matches_oracle(
            self.HIT_GRAPH, "SELECT ?s ?p WHERE { ?s ?p ?p }", engine_name
        )

    def test_predicate_equals_subject_with_match(self, engine_name):
        assert_matches_oracle(
            self.HIT_GRAPH, "SELECT ?p ?o WHERE { ?p ?p ?o }", engine_name
        )

    def test_all_three_slots_shared(self, engine_name):
        assert_matches_oracle(
            self.HIT_GRAPH, "SELECT ?x WHERE { ?x ?x ?x }", engine_name
        )

    def test_shared_predicate_variable_joins_other_pattern(self, engine_name):
        assert_matches_oracle(
            self.HIT_GRAPH,
            "SELECT ?s ?p ?o WHERE { ?s ?p ?p . ?p ?p ?o }",
            engine_name,
        )


def test_seed_17_folds_the_keyed_child_before_the_cartesian_one():
    """Fuzz seed 17, query #1 (mixed): under the root ``?v1 makesPurchase
    ?v0``, the fully bound VP node ``Entity4 friendOf Entity4`` outranks the
    PT node ``{?v0 subscribes "gamma" . ?v0 friendOf Entity8}`` (priority
    999 999.5 against 999 999.0) but shares no variable with the root. The
    fold joins the keyed PT child first and runs the cartesian product last;
    descending priority alone ran the product first."""
    from repro.core.executor import JoinTreeExecutor
    from repro.testing import DifferentialRunner

    graph, queries = DifferentialRunner(queries_per_graph=2).generate_case(17)
    engine = ProstEngine(num_workers=3, strategy="mixed")
    engine.load(graph)
    tree = engine.translate(queries[1])
    assert [child.kind for child in tree.root.children] == ["PT", "VP"]
    assert [child.priority for child in tree.root.children] == [999_999.0, 999_999.5]
    assert [child.kind for child in tree.root.fold_order()] == ["PT", "VP"]
    plan = JoinTreeExecutor(engine.store).build(tree).plan
    assert (plan.how, plan.left.how, plan.left.on) == ("cross", "inner", ("v0",))
