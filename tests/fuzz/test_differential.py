"""Tier-1 fixed-seed differential fuzzing: 200 cases across all engines.

Twenty fixed seeds × ten queries each. Every case runs on the brute-force
oracle, PRoST (mixed and vp, each direct and served through a 2-entry plan
cache), S2RDF, SPARQLGX, and Rya; solutions must be multiset-equal
everywhere. The same corpus also runs once under a 4 KiB per-query memory
budget, where joins spill and trip the budget and rows must not change. A
failure prints the seed, the shrunken graph and query, and a one-command
replay line.

The extended (randomized-range) run is opt-in — see ``conftest.py``.
"""

from __future__ import annotations

import pytest

from repro.testing import DifferentialRunner, FaultStats, run_fuzz
from repro.testing.querygen import QueryGenConfig

#: Tier-1 seeds: 20 seeds x 10 queries/graph = 200 fixed differential cases.
TIER1_SEEDS = tuple(range(20))
QUERIES_PER_GRAPH = 10

#: Per-query budget of the governed corpus: small enough that fuzz-scale
#: joins spill (65 536 B, the old CI leg's setting, never tripped once).
GOVERNED_BUDGET_BYTES = 4096


@pytest.fixture(scope="module")
def runner() -> DifferentialRunner:
    return DifferentialRunner(queries_per_graph=QUERIES_PER_GRAPH)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_fixed_seed_differential(runner, seed):
    mismatches = runner.run_seed(seed)
    assert not mismatches, "\n\n".join(m.format() for m in mismatches)


def test_governed_corpus_spills_without_changing_rows():
    """The fixed corpus under a memory budget: spilled and degraded joins
    must still match the unbudgeted oracle, and the budget must actually
    bite (a budget that never trips tests nothing)."""
    governed = DifferentialRunner(
        queries_per_graph=QUERIES_PER_GRAPH,
        memory_budget_bytes=GOVERNED_BUDGET_BYTES,
    )
    totals = FaultStats()
    for seed in TIER1_SEEDS:
        mismatches, stats = governed.run_seed_with_stats(seed)
        assert not mismatches, "\n\n".join(m.format() for m in mismatches)
        totals.merge(stats)
    assert totals.spills > 0
    assert totals.budget_trips > 0


def test_generation_is_deterministic(runner):
    """The same seed must always denote the same (graph, queries) case —
    replay depends on it."""
    graph_a, queries_a = runner.generate_case(TIER1_SEEDS[0])
    graph_b, queries_b = runner.generate_case(TIER1_SEEDS[0])
    assert graph_a.to_ntriples() == graph_b.to_ntriples()
    assert queries_a == queries_b


def test_aggressive_config_smoke():
    """A handful of cases at cranked-up probabilities (unbound predicates,
    repeated variables, aliasing) — the shapes that found real bugs."""
    aggressive = QueryGenConfig(
        max_patterns=6,
        constant_subject_prob=0.3,
        constant_object_prob=0.5,
        unbound_predicate_prob=0.35,
        repeated_predicate_var_prob=0.5,
        variable_alias_prob=0.35,
        miss_term_prob=0.2,
        filter_prob=0.7,
        distinct_prob=0.4,
        limit_prob=0.4,
    )
    runner = DifferentialRunner(query_config=aggressive, queries_per_graph=6)
    mismatches = []
    for seed in (1000, 1001, 1002):
        mismatches.extend(runner.run_seed(seed))
    assert not mismatches, "\n\n".join(m.format() for m in mismatches)


@pytest.mark.fuzz
def test_extended_fuzz(extended_fuzz_iterations):
    """Opt-in long run over a seed range (see module docstring)."""
    report = run_fuzz(iterations=extended_fuzz_iterations)
    assert report.ok, report.summary() + "\n\n" + "\n\n".join(
        m.format() for m in report.mismatches
    )
