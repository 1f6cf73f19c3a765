"""Deterministic interleaving replays over the serving data plane.

The dynamic counterpart of ``repro.analysis.concurrency``: a seeded
cooperative scheduler (:mod:`repro.testing.interleave`) drives real
threads through ``ProstEngine`` / ``QueryServer`` one at a time, choosing
who runs at every instrumented lock acquire/release and method boundary.
Each seed is one exact thread schedule, so every test here is a replayable
proof, not a stress test:

- the *pre-fix* stale-plan race (a plan built against the old store
  published after a reload cleared the cache) is reinstated by monkeypatch
  and **caught** by at least one seed — demonstrating the harness can see
  the bug the epoch-checked ``_cache_plan`` insert fixed;
- the fixed tree keeps results multiset-equal to a legitimate dataset
  (pre- or post-reload) under every swept seed, across cache eviction
  churn and epoch-bump reloads.

Each sweep replays seeds 0..9; a failing seed prints one-line replay
instructions.
"""

from repro.core import ProstEngine
from repro.rdf import Graph
from repro.serve import QueryServer
from repro.testing.interleave import (
    InstrumentedLock,
    InterleaveScheduler,
    instrument_methods,
    sweep,
)

from .conftest import GRAPH_NT, Q_FOLLOWS, Q_STAR, Q_TWO_HOP, RELOAD_NT, row_keys

TEST_ID = "tests/serve/test_interleave.py"

QUERIES = (Q_FOLLOWS, Q_TWO_HOP, Q_STAR)


def _expected_rows(nt: str) -> dict[str, list]:
    """Ground-truth row multisets per query, from an uncontended engine."""
    engine = ProstEngine()
    engine.load(Graph.from_ntriples(nt))
    return {query: row_keys(engine.sparql(query)) for query in QUERIES}


EXPECTED_OLD = _expected_rows(GRAPH_NT)
EXPECTED_NEW = _expected_rows(RELOAD_NT)


def _loaded_engine() -> ProstEngine:
    engine = ProstEngine()
    engine.load(Graph.from_ntriples(GRAPH_NT))
    return engine


def _break_plan_publication(engine: ProstEngine) -> None:
    """Reinstate the pre-fix bug: publish plans *without* the epoch check.

    This is exactly what the engine did before ``_cache_plan`` existed —
    an unconditional text-keyed insert, allowing a plan built against the
    old store to land after a reload cleared the cache.
    """

    def unconditional(text, planned_version, frame, description):
        with engine._cache_lock:
            engine._plan_cache[text] = (frame, description)

    engine._cache_plan = unconditional


def _run_reload_race(seed: int, broken: bool):
    """One reader serving Q_FOLLOWS racing one dataset reload.

    Returns the rows Q_FOLLOWS serves *after* both threads joined — with
    correct epoch checking these must be the new dataset's rows.
    """
    engine = _loaded_engine()
    scheduler = InterleaveScheduler(seed)
    engine._cache_lock = InstrumentedLock(scheduler, "engine._cache_lock")
    if broken:
        _break_plan_publication(engine)
        instrument_methods(scheduler, engine, ["dataframe", "load"])
    else:
        instrument_methods(scheduler, engine, ["dataframe", "load", "_cache_plan"])
    new_graph = Graph.from_ntriples(RELOAD_NT)

    result = scheduler.run(
        {
            "reader": lambda: engine.sparql(Q_FOLLOWS),
            "reloader": lambda: engine.load(new_graph),
        },
        timeout_sec=60,
    )
    result.raise_errors()
    return row_keys(engine.sparql(Q_FOLLOWS))


class TestEngineReloadRace:
    def test_unchecked_plan_publication_is_caught(self):
        """The pre-fix bug must be *observable* under this harness: some
        seed's schedule lands the stale plan after the reload's cache
        clear, and the engine then serves old-store rows forever."""
        stale_seeds = [
            seed
            for seed in range(10)
            if _run_reload_race(seed, broken=True) != EXPECTED_NEW[Q_FOLLOWS]
        ]
        assert stale_seeds, (
            "no seed in 0..9 reproduced the stale-plan race against the "
            "unchecked insert; the interleaving harness lost the coverage "
            "that justifies ProstEngine._cache_plan's epoch check"
        )

    def test_epoch_checked_publication_survives_every_seed(self):
        """The shipped engine: after a racing reload, the very next serving
        sees the new dataset under every swept schedule."""

        def scenario(seed: int) -> None:
            rows = _run_reload_race(seed, broken=False)
            assert rows == EXPECTED_NEW[Q_FOLLOWS], (
                f"stale rows served after reload: {rows}"
            )

        sweep(scenario, test_id=TEST_ID)


class TestServerInterleavings:
    @staticmethod
    def _instrumented_server(scheduler):
        engine = _loaded_engine()
        server = QueryServer(engine, plan_cache_size=2, result_cache_size=2)
        engine._cache_lock = InstrumentedLock(scheduler, "engine._cache_lock")
        server._lock = InstrumentedLock(scheduler, "server._lock")
        server._plan_cache._lock = InstrumentedLock(scheduler, "plan_cache._lock")
        server._result_cache._lock = InstrumentedLock(scheduler, "result_cache._lock")
        instrument_methods(scheduler, engine, ["dataframe", "load", "_cache_plan"])
        return server

    def test_eviction_churn_with_reload_keeps_results_legitimate(self):
        """Two readers cycling three plan shapes through a capacity-2 plan
        cache (guaranteed eviction churn) race one epoch-bump reload: every
        answer must be multiset-equal to the old *or* the new dataset's
        rows — never a torn mixture — and post-join servings must all be
        new."""

        def scenario(seed: int) -> None:
            scheduler = InterleaveScheduler(seed)
            server = self._instrumented_server(scheduler)
            new_graph = Graph.from_ntriples(RELOAD_NT)
            observations: dict[str, list] = {}

            def reader(name: str):
                got = []
                for query in QUERIES:
                    got.append((query, row_keys(server.sparql(query))))
                observations[name] = got

            result = scheduler.run(
                {
                    "reader-a": lambda: reader("reader-a"),
                    "reader-b": lambda: reader("reader-b"),
                    "reloader": lambda: server.load(new_graph),
                },
                timeout_sec=120,
            )
            result.raise_errors()
            for name, got in observations.items():
                for query, rows in got:
                    assert rows in (EXPECTED_OLD[query], EXPECTED_NEW[query]), (
                        f"{name} observed torn rows for {query!r}: {rows}"
                    )
            for query in QUERIES:
                assert row_keys(server.sparql(query)) == EXPECTED_NEW[query]

        sweep(scenario, test_id=TEST_ID)

    def test_stats_stay_consistent_under_interleaving(self):
        """queries_served is exact (every request counted once) and the
        cache counters obey hits + misses == lookups after any schedule."""

        def scenario(seed: int) -> None:
            scheduler = InterleaveScheduler(seed)
            server = self._instrumented_server(scheduler)
            requests_per_reader = len(QUERIES)

            def reader():
                for query in QUERIES:
                    server.sparql(query)

            result = scheduler.run(
                {"reader-a": reader, "reader-b": reader}, timeout_sec=120
            )
            result.raise_errors()
            assert server.stats.queries_served == 2 * requests_per_reader
            plan = server._plan_cache.snapshot()
            assert plan["hits"] + plan["misses"] <= 2 * requests_per_reader
            assert plan["size"] <= server._plan_cache.capacity

        sweep(scenario, test_id=TEST_ID)
