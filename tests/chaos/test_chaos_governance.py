"""Tier-1 governed-chaos suite: budgets + fault plans, results unchanged.

Twenty-five fixed-seed differential cases run every cluster-backed engine
under a seeded fault plan AND a per-query memory budget small enough that
fuzz-scale joins spill or degrade, with a deadline generous enough that no
case times out. The contract: spilling, broadcast degradation, and
mid-query memory-pressure faults may change the *cost* of a query, never
its rows — every result stays multiset-equal to the fault-free,
unbudgeted brute-force oracle.

A final aggregate check asserts the governor actually intervened (spills,
degraded joins, pressure events all nonzero across the run); a budget set
too high would otherwise silently reduce this suite to the plain chaos
suite.

Every case is replayable::

    PYTHONPATH=src python -m repro.cli fuzz --seed <seed> --iterations 1 \
        --chaos-seed 1729 --memory-budget 1024 --timeout 60
"""

from __future__ import annotations

import pytest

from repro.testing import CLUSTER_SYSTEMS, DifferentialRunner, FaultStats

pytestmark = pytest.mark.chaos

CHAOS_SEED = 1729
CASE_SEEDS = tuple(range(25))
QUERIES_PER_GRAPH = 2

#: Small enough that fuzz-scale join builds trip it (the aggregate check
#: below asserts it did); the deadline is slack — timeouts are not under test.
MEMORY_BUDGET_BYTES = 1024
QUERY_TIMEOUT_SEC = 60.0

_runner: list[DifferentialRunner] = []
_totals = FaultStats()
_cases_run = 0


def runner() -> DifferentialRunner:
    if not _runner:
        _runner.append(
            DifferentialRunner(
                systems=CLUSTER_SYSTEMS,
                queries_per_graph=QUERIES_PER_GRAPH,
                chaos_seed=CHAOS_SEED,
                memory_budget_bytes=MEMORY_BUDGET_BYTES,
                query_timeout_sec=QUERY_TIMEOUT_SEC,
            )
        )
    return _runner[0]


@pytest.mark.parametrize("seed", CASE_SEEDS)
def test_results_survive_budget_and_fault_plan(seed: int):
    global _cases_run
    mismatches, stats = runner().run_seed_with_stats(seed)
    _totals.merge(stats)
    _cases_run += 1
    assert not mismatches, "\n\n".join(m.format() for m in mismatches)


def test_the_governor_actually_intervened():
    """Aggregated over all cases: every governance lever moved."""
    assert _cases_run == len(CASE_SEEDS)
    assert _totals.spills > 0
    assert _totals.degraded_joins > 0
    assert _totals.memory_pressure_events > 0
    # The fault plan still fires alongside the budget.
    assert _totals.task_retries > 0
