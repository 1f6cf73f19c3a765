"""Cross-system integration tests.

The central correctness property of the whole repository: **every system —
PRoST (mixed, VP-only, object-PT, extended stats), SPARQLGX, S2RDF, and Rya —
returns exactly the reference evaluator's solutions** on the same graph, for
the WatDiv basic query set and for randomized graphs/queries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import Rya, S2Rdf, SparqlGx
from repro.core import ProstEngine
from repro.errors import UnsupportedSparqlError
from repro.rdf import Graph, IRI, Triple
from repro.rdf.reference import ReferenceEvaluator
from repro.sparql import parse_sparql
from repro.watdiv import basic_query_set, generate_watdiv


@pytest.fixture(scope="module")
def watdiv():
    dataset = generate_watdiv(scale=60, seed=13)
    return dataset, basic_query_set(dataset), ReferenceEvaluator(dataset.graph)


SYSTEM_FACTORIES = {
    "prost-mixed": lambda: ProstEngine(strategy="mixed"),
    "prost-vp": lambda: ProstEngine(strategy="vp"),
    "prost-objectpt": lambda: ProstEngine(use_object_property_table=True),
    "prost-extended": lambda: ProstEngine(statistics_level="extended"),
    "sparqlgx": SparqlGx,
    "s2rdf": lambda: S2Rdf(selectivity_threshold=0.8),
    "rya": Rya,
}


@pytest.mark.parametrize("system_name", sorted(SYSTEM_FACTORIES))
def test_watdiv_query_set_matches_reference(watdiv, system_name):
    dataset, queries, reference = watdiv
    system = SYSTEM_FACTORIES[system_name]()
    system.load(dataset.graph)
    for query in queries:
        parsed = parse_sparql(query.text)
        got = system.sparql(parsed).rows
        want = reference.evaluate(parsed)
        assert got == want, f"{system_name} differs on {query.name}"


@pytest.mark.parametrize("system_name", sorted(SYSTEM_FACTORIES))
def test_order_by_non_projected_variable_is_a_typed_error(system_name):
    """Every system rejects it the same way, before planning — not with a
    raw ``ValueError`` out of result finalization."""
    system = SYSTEM_FACTORIES[system_name]()
    system.load(Graph([Triple(_SUBJECTS[0], _PREDICATES[0], _OBJECTS[1])]))
    query = "SELECT ?s WHERE { ?s <http://r/p0> ?o } ORDER BY ?o"
    with pytest.raises(UnsupportedSparqlError, match="non-projected"):
        system.sparql(query)
    with pytest.raises(UnsupportedSparqlError, match="non-projected"):
        system.explain(query)


# -- randomized graphs and queries ------------------------------------------------

_SUBJECTS = [IRI(f"http://r/s{i}") for i in range(8)]
_PREDICATES = [IRI(f"http://r/p{i}") for i in range(4)]
_OBJECTS = _SUBJECTS + [IRI(f"http://r/o{i}") for i in range(4)]

_triples = st.builds(
    Triple,
    st.sampled_from(_SUBJECTS),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_OBJECTS),
)

_VARIABLES = ["a", "b", "c", "d"]


@st.composite
def _random_query(draw):
    pattern_count = draw(st.integers(1, 4))
    parts = []
    variables_used = set()
    for _ in range(pattern_count):
        subject = draw(
            st.sampled_from([f"?{v}" for v in _VARIABLES])
            | st.sampled_from([s.n3() for s in _SUBJECTS[:3]])
        )
        predicate = draw(st.sampled_from([p.n3() for p in _PREDICATES]))
        obj = draw(
            st.sampled_from([f"?{v}" for v in _VARIABLES])
            | st.sampled_from([o.n3() for o in _OBJECTS[:4]])
        )
        for slot in (subject, obj):
            if slot.startswith("?"):
                variables_used.add(slot)
        parts.append(f"{subject} {predicate} {obj}")
    if not variables_used:
        variables_used = {"?a"}
        parts.append(f"?a {_PREDICATES[0].n3()} ?b")
    projection = " ".join(sorted(variables_used))
    return f"SELECT {projection} WHERE {{ {' . '.join(parts)} }}"


@given(st.lists(_triples, min_size=1, max_size=40), _random_query())
@settings(max_examples=25, deadline=None)
def test_property_prost_and_rya_match_reference_on_random_input(triples, query):
    """PRoST (both strategies) and Rya agree with the oracle on arbitrary
    graphs and arbitrary (possibly cartesian, possibly empty) BGP queries."""
    graph = Graph(triples)
    parsed = parse_sparql(query)
    want = ReferenceEvaluator(graph).evaluate(parsed)
    for factory in (
        lambda: ProstEngine(strategy="mixed"),
        lambda: ProstEngine(strategy="vp"),
        Rya,
    ):
        system = factory()
        system.load(graph)
        assert system.sparql(parsed).rows == want


@given(st.lists(_triples, min_size=1, max_size=30), _random_query())
@settings(max_examples=10, deadline=None)
def test_property_baseline_engines_match_reference_on_random_input(triples, query):
    """SPARQLGX and S2RDF agree with the oracle on arbitrary input too
    (fewer examples: S2RDF's loading sweep is the expensive part)."""
    graph = Graph(triples)
    parsed = parse_sparql(query)
    want = ReferenceEvaluator(graph).evaluate(parsed)
    for factory in (SparqlGx, lambda: S2Rdf(selectivity_threshold=1.0)):
        system = factory()
        system.load(graph)
        assert system.sparql(parsed).rows == want
