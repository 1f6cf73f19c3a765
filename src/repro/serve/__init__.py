"""Multi-tenant query serving over one loaded engine.

The serving front door the ROADMAP's "millions of users" item asks for:
:class:`~repro.serve.server.QueryServer` wraps a
:class:`~repro.core.prost.ProstEngine` with tenant-labelled admission
(through the engine's :class:`~repro.governor.Governor`), an LRU **plan
cache** keyed on normalized query shape + dataset epoch (skipping
translate → optimize → plan-verify on a hit, guarded by the ``PV401``
lineage check), a **result cache** invalidated by dataset reloads, and a
batch executor that deduplicates identical queries and shares PT/VP table
scans across a burst. ``prost-repro serve`` drives an interactive session;
``python3 -m perfbench run --workload serve_mixed`` measures the whole
stack.

Environment knobs: ``REPRO_SERVE_PLAN_CACHE`` / ``REPRO_SERVE_RESULT_CACHE``
set default cache capacities (0 disables a cache); ``REPRO_SERVE_MODE=1``
makes the differential fuzz harness route PRoST engines through a server,
proving cached-plan and batched execution stay multiset-equal to cold
execution.
"""

from .batching import execute_batch, tables_scanned
from .cache import LruCache
from .normalize import canonicalize, plan_shape
from .server import (
    DEFAULT_PLAN_CACHE_SIZE,
    DEFAULT_RESULT_CACHE_SIZE,
    DEFAULT_TENANT,
    PLAN_CACHE_ENV,
    RESULT_CACHE_ENV,
    PlanEntry,
    QueryServer,
    ResultEntry,
    ServerStats,
    plan_cache_size_from_env,
    result_cache_size_from_env,
)

__all__ = [
    "DEFAULT_PLAN_CACHE_SIZE",
    "DEFAULT_RESULT_CACHE_SIZE",
    "DEFAULT_TENANT",
    "PLAN_CACHE_ENV",
    "RESULT_CACHE_ENV",
    "LruCache",
    "PlanEntry",
    "QueryServer",
    "ResultEntry",
    "ServerStats",
    "canonicalize",
    "execute_batch",
    "plan_cache_size_from_env",
    "plan_shape",
    "result_cache_size_from_env",
    "tables_scanned",
]
