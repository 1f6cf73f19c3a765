"""Randomized differential-testing harness.

The fuzzing subsystem behind ``tests/fuzz/`` and the ``prost-repro fuzz``
CLI subcommand. Three parts:

- :mod:`~repro.testing.graphgen` — seedable random RDF graphs over the
  WatDiv vocabulary (configurable predicate count, multi-valued density,
  literal ratio);
- :mod:`~repro.testing.querygen` — random BGP queries in star, path,
  snowflake, and cyclic shapes with optional FILTER / DISTINCT / LIMIT and
  unbound predicates, emitted as both AST and SPARQL text;
- :mod:`~repro.testing.oracle` / :mod:`~repro.testing.differential` — a
  brute-force nested-loop reference oracle plus the runner that executes
  every generated query on all engines, asserts multiset-equal solutions,
  and shrinks counterexamples to minimal (graph, query) pairs;
- :mod:`~repro.testing.interleave` — a seeded cooperative-interleaving
  scheduler replaying deterministic thread schedules over the serving
  layer (the dynamic counterpart of the static lockset checker in
  :mod:`repro.analysis.concurrency`).

Everything is deterministic given a seed: a failure report prints the seed
and a one-command replay line.
"""

from .differential import (
    ALL_SYSTEMS,
    CLUSTER_SYSTEMS,
    DifferentialMismatch,
    DifferentialRunner,
    FaultStats,
    FuzzReport,
    ServedProstEngine,
    chaos_plan_seed,
    run_fuzz,
)
from .graphgen import GraphGenConfig, generate_graph
from .interleave import (
    DeadlockError,
    InstrumentedLock,
    InterleaveError,
    InterleaveResult,
    InterleaveScheduler,
    SchedulerStallError,
    instrument_methods,
    replay_instructions,
    sweep,
)
from .oracle import BruteForceOracle
from .querygen import QueryGenConfig, generate_query, serialize_query

__all__ = [
    "ALL_SYSTEMS",
    "CLUSTER_SYSTEMS",
    "BruteForceOracle",
    "DeadlockError",
    "DifferentialMismatch",
    "DifferentialRunner",
    "FaultStats",
    "FuzzReport",
    "GraphGenConfig",
    "InstrumentedLock",
    "InterleaveError",
    "InterleaveResult",
    "InterleaveScheduler",
    "QueryGenConfig",
    "SchedulerStallError",
    "ServedProstEngine",
    "chaos_plan_seed",
    "generate_graph",
    "generate_query",
    "instrument_methods",
    "replay_instructions",
    "run_fuzz",
    "serialize_query",
    "sweep",
]
