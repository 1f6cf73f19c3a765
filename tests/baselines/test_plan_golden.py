"""Golden digest of the compiled baselines' plain EXPLAIN text.

One sha256 per system (S2RDF, SPARQLGX, SPARQLGX-SDE) over ``explain()``
for the twenty WatDiv templates at scale 400 and the 200 queries of the
fixed fuzz corpus (their BGPs plus FILTER / DISTINCT tails). The digests
were recorded before the three systems shared one query lifecycle, and
S2RDF's again when its ``est=`` began printing the selectivity-scaled
estimate its join order sorts by (every plan line unchanged); a digest that
moves means a table choice, an estimate, a join order, a join hint or the
optimizer setting moved. Two process-global numberings are normalised
first, since they depend on what ran before: ``__exists<N>`` marker names,
and dictionary term IDs (a constant absent from the data is interned when a
query first names it), which print as the term's N-Triples text.
"""

import hashlib
import re
from functools import lru_cache

import pytest

from repro.baselines import S2Rdf, SparqlGx, SparqlGxDirect
from repro.rdf.dictionary import default_dictionary, is_term_id
from repro.sparql import parse_sparql
from repro.testing import DifferentialRunner
from repro.watdiv.generator import generate_watdiv
from repro.watdiv.queries import basic_query_set

GOLDEN = {
    "s2rdf": "1670dfeceb6bc041313204ce9a2735df0984eac237b2431823705ca92b7db0fd",
    "sparqlgx": "bb1507ca0bc3c9fc9a3bb5198bbf8d4d5d5edeb6e01037eb4a214cb98eea2e06",
    "sparqlgx-sde": "a7b9fead5f30e359614b5eb7d21885118c1f352fc07632802f2837b4ed72356d",
}

SYSTEMS = {"s2rdf": S2Rdf, "sparqlgx": SparqlGx, "sparqlgx-sde": SparqlGxDirect}

SCALE = 400
FUZZ_SEEDS = tuple(range(20))
FUZZ_QUERIES_PER_GRAPH = 10

_MARKER = re.compile(r"__exists\d+")
_NUMBER = re.compile(r"\b\d+\b")


@lru_cache(maxsize=None)
def all_cases():
    """``[(graph, [SelectQuery, ...]), ...]``: templates first, then fuzz."""
    dataset = generate_watdiv(scale=SCALE)
    cases = [
        (
            dataset.graph,
            [parse_sparql(query.text) for query in basic_query_set(dataset)],
        )
    ]
    runner = DifferentialRunner(queries_per_graph=FUZZ_QUERIES_PER_GRAPH)
    cases.extend(runner.generate_case(seed) for seed in FUZZ_SEEDS)
    return cases


def normalise(text: str) -> str:
    dictionary = default_dictionary()

    def term_text(match: re.Match) -> str:
        number = int(match.group())
        return dictionary.text_of(number) if is_term_id(number) else match.group()

    return _NUMBER.sub(term_text, _MARKER.sub("__exists", text))


def explain_digest(system: str) -> str:
    digest = hashlib.sha256()
    for graph, queries in all_cases():
        engine = SYSTEMS[system]()
        engine.load(graph)
        for query in queries:
            text = normalise(engine.explain(query)).encode("utf-8")
            digest.update(len(text).to_bytes(8, "little"))
            digest.update(text)
    return digest.hexdigest()


def test_corpus_size():
    """20 templates plus 20 seeds x 10 fuzz queries."""
    assert sum(len(queries) for _, queries in all_cases()) == 20 + 200


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_explain_matches_the_golden(system):
    assert explain_digest(system) == GOLDEN[system]
