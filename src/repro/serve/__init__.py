"""Multi-tenant query serving over one loaded engine.

The serving front door the ROADMAP's "millions of users" item asks for:
:class:`~repro.serve.server.QueryServer` wraps a
:class:`~repro.core.prost.ProstEngine` with tenant-labelled admission
(through the engine's :class:`~repro.governor.Governor`), an LRU **plan
cache** keyed on normalized query shape + dataset epoch (skipping
translate → optimize → plan-verify on a hit, guarded by the ``PV401``
lineage check), and a **result cache** invalidated by dataset reloads.
``prost-repro serve`` drives an interactive session;
``python3 -m perfbench run --workload serve_mixed`` measures the whole
stack.

Cache capacities are constructor arguments (``prost-repro serve
--plan-cache / --result-cache``; 0 disables a cache, defaults 64 / 256).
The differential fuzz harness's ``prost-mixed-served`` / ``prost-vp-served``
systems route PRoST engines through a server with a 2-entry plan cache,
proving cached-plan execution stays multiset-equal to cold execution.
"""

from .cache import LruCache
from .normalize import canonicalize, plan_shape
from .server import (
    DEFAULT_PLAN_CACHE_SIZE,
    DEFAULT_RESULT_CACHE_SIZE,
    DEFAULT_TENANT,
    PlanEntry,
    QueryServer,
    ResultEntry,
    ServerStats,
)

__all__ = [
    "DEFAULT_PLAN_CACHE_SIZE",
    "DEFAULT_RESULT_CACHE_SIZE",
    "DEFAULT_TENANT",
    "LruCache",
    "PlanEntry",
    "QueryServer",
    "ResultEntry",
    "ServerStats",
    "canonicalize",
    "plan_shape",
]
