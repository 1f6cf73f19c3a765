"""Shared fixtures: small graphs, loaded engines, and query helpers."""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--fuzz-iterations",
        type=int,
        default=None,
        metavar="N",
        help="run the extended differential fuzz test for N random seeds "
        "(default: skipped)",
    )
    parser.addoption(
        "--update-goldens",
        action="store_true",
        help="rewrite tests/obs/golden/*.txt from the current EXPLAIN output",
    )

from repro.core import ProstEngine
from repro.rdf import Graph
from repro.rdf.reference import ReferenceEvaluator

#: A small social graph exercising every interesting shape: multi-valued
#: predicates, literals with datatypes, stars, and chains.
SOCIAL_NT = """
<http://ex/alice> <http://ex/knows> <http://ex/bob> .
<http://ex/alice> <http://ex/knows> <http://ex/carol> .
<http://ex/bob>   <http://ex/knows> <http://ex/carol> .
<http://ex/carol> <http://ex/knows> <http://ex/dave> .
<http://ex/alice> <http://ex/name> "Alice" .
<http://ex/bob>   <http://ex/name> "Bob" .
<http://ex/carol> <http://ex/name> "Carol" .
<http://ex/dave>  <http://ex/name> "Dave" .
<http://ex/alice> <http://ex/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/bob>   <http://ex/age> "25"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/carol> <http://ex/age> "35"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/alice> <http://ex/tag> "x" .
<http://ex/alice> <http://ex/tag> "y" .
<http://ex/bob>   <http://ex/tag> "x" .
<http://ex/alice> <http://ex/city> <http://ex/berlin> .
<http://ex/bob>   <http://ex/city> <http://ex/berlin> .
<http://ex/carol> <http://ex/city> <http://ex/paris> .
<http://ex/berlin> <http://ex/country> <http://ex/germany> .
<http://ex/paris>  <http://ex/country> <http://ex/france> .
"""


@pytest.fixture(scope="session")
def social_graph() -> Graph:
    return Graph.from_ntriples(SOCIAL_NT)


@pytest.fixture(scope="session")
def social_reference(social_graph) -> ReferenceEvaluator:
    return ReferenceEvaluator(social_graph)


@pytest.fixture(scope="session")
def prost_mixed(social_graph) -> ProstEngine:
    engine = ProstEngine(strategy="mixed")
    engine.load(social_graph)
    return engine


@pytest.fixture(scope="session")
def prost_vp(social_graph) -> ProstEngine:
    engine = ProstEngine(strategy="vp")
    engine.load(social_graph)
    return engine


#: Queries over the social graph covering star, chain, filters, modifiers.
SOCIAL_QUERIES = [
    'SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n }',
    'SELECT ?x ?n ?a WHERE { ?x <http://ex/name> ?n . ?x <http://ex/age> ?a }',
    'SELECT ?x WHERE { ?x <http://ex/tag> "x" . ?x <http://ex/tag> ?t }',
    'SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y }',
    'SELECT ?x ?p WHERE { ?x ?p <http://ex/carol> }',
    'SELECT ?x WHERE { ?x <http://ex/age> ?a . FILTER(?a > 26) }',
    'SELECT ?n WHERE { <http://ex/alice> <http://ex/name> ?n }',
    'SELECT ?x ?c WHERE { ?x <http://ex/city> ?ci . ?ci <http://ex/country> ?c }',
    'SELECT ?a ?b WHERE { ?a <http://ex/knows> ?b . ?a <http://ex/tag> "x" . '
    '?b <http://ex/name> ?n . FILTER(?n != "Dave") }',
    'SELECT ?x WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/knows> ?z . '
    '?z <http://ex/knows> ?w }',
]
