"""Serve-mode differential equivalence: served == cold, on fuzzed corpora.

The differential harness's ``prost-mixed-served`` / ``prost-vp-served``
systems wrap PRoST in :class:`~repro.testing.differential.ServedProstEngine`,
which runs every query cold and via the plan cache, and demands the two
agree before the oracle comparison even happens. The
tier-1 corpus (``tests/fuzz/test_differential.py``) runs both on every
seed; these tests check the wrapper itself, and that its deliberately tiny
plan cache really evicts and replans on fuzzed queries.
"""

from collections import Counter

from repro.rdf import Graph
from repro.testing import BruteForceOracle, DifferentialRunner
from repro.testing.differential import (
    SERVED_PLAN_CACHE_SIZE,
    ServedProstEngine,
    make_system,
    row_key,
)

from .conftest import GRAPH_NT, Q_FOLLOWS, Q_STAR, Q_TWO_HOP


class TestServedProstEngine:
    def test_matches_oracle_on_handwritten_queries(self):
        graph = Graph.from_ntriples(GRAPH_NT)
        oracle = BruteForceOracle(graph)
        served = ServedProstEngine("mixed")
        served.load(graph)
        from repro.sparql.parser import parse_sparql

        for text in (Q_FOLLOWS, Q_STAR, Q_TWO_HOP):
            query = parse_sparql(text)
            expected = Counter(map(row_key, oracle.evaluate(query)))
            actual = Counter(map(row_key, served.sparql(query).rows))
            assert actual == expected, text

    def test_exercises_the_cached_plan_path(self):
        served = ServedProstEngine("mixed")
        served.load(Graph.from_ntriples(GRAPH_NT))
        served.sparql(Q_FOLLOWS)
        stats = served.server.stats
        assert stats.queries_served == 2  # one cold run, one cached-plan run
        assert stats.plan_cache_hits == 1  # the second (cached) run hit
        assert stats.result_cache_hits == 0  # result cache must stay off


class TestServeModeFuzz:
    def test_fuzz_slice_through_the_serving_layer(self):
        """One fuzz seed through a served system: the 2-entry plan cache
        evicts and replans, and every answer still matches the oracle."""
        runner = DifferentialRunner(queries_per_graph=10)
        graph, queries = runner.generate_case(0)
        oracle = BruteForceOracle(graph)
        served = make_system("prost-mixed-served")
        served.load(graph)
        for query in queries:
            expected = Counter(map(row_key, oracle.evaluate(query)))
            assert Counter(map(row_key, served.sparql(query).rows)) == expected
        stats = served.server.stats
        assert served.server._plan_cache.capacity == SERVED_PLAN_CACHE_SIZE
        assert stats.plan_cache_evictions > 0
        assert stats.plan_cache_hits > 0
