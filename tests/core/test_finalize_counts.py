"""Count guard on finalize: a result whose solutions repeat is sorted and
decoded once per *distinct* solution, and its duplicate rows share one
tuple.

Counts, not seconds: they repeat exactly under any ``PYTHONHASHSEED`` and on
any machine. WatDiv C3 projects one variable of a six-pattern star, so each
of its solutions repeats once per combination of the star's multi-valued
properties.
"""

import pytest

import repro.core.results as results_module
from repro.core import ProstEngine
from repro.sparql import parse_sparql
from repro.watdiv.generator import generate_watdiv
from repro.watdiv.queries import basic_query_set


def test_c3_builds_and_decodes_each_distinct_solution_once(monkeypatch):
    dataset = generate_watdiv(scale=120)
    engine = ProstEngine()
    engine.load(dataset.graph)
    c3 = next(query for query in basic_query_set(dataset) if query.name == "C3")
    real = results_module.decode_term
    calls = []

    def counting(cell):
        calls.append(cell)
        return real(cell)

    monkeypatch.setattr(results_module, "decode_term", counting)
    rows = engine.sparql(c3.text).rows
    distinct = set(rows)
    assert len(rows) > 2 * len(distinct)  # the guard has duplicates to see
    assert len({id(row) for row in rows}) == len(distinct)
    assert len(calls) <= len({cell for row in distinct for cell in row})


@pytest.mark.parametrize(
    "text, can_repeat",
    [
        ("SELECT ?s WHERE { ?s <http://ex/p> ?o }", True),
        ("SELECT ?s WHERE { ?s <http://ex/p> ?o . OPTIONAL { ?s <http://ex/q> ?z } }", True),
        ("SELECT ?o ?s WHERE { ?s <http://ex/p> ?o }", False),
        ("SELECT * WHERE { ?s <http://ex/p> ?o . ?o <http://ex/q> ?z }", False),
        ("SELECT DISTINCT ?s WHERE { ?s <http://ex/p> ?o }", False),
        ("SELECT (COUNT(?o) AS ?n) WHERE { ?s <http://ex/p> ?o }", False),
        ("SELECT ?s WHERE { { ?s <http://ex/p> ?o } UNION { ?s <http://ex/q> ?o } }", True),
        ("SELECT * WHERE { { ?s <http://ex/p> ?o } UNION { ?s <http://ex/q> ?o } }", True),
    ],
)
def test_solutions_can_repeat(text, can_repeat):
    assert results_module._solutions_can_repeat(parse_sparql(text)) is can_repeat
