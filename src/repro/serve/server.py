"""The multi-tenant session server over one :class:`ProstEngine`.

:class:`QueryServer` is the serving front door the ROADMAP's "millions of
users" north star asks for: many concurrent clients, one loaded engine.
Every query — hit or miss — passes through the engine's
:class:`~repro.governor.Governor` admission gate carrying a tenant label,
so per-tenant slot caps and cost attribution apply uniformly. Inside the
slot, two caches exploit repeated workload structure (the PHD-Store
observation that production workloads repeat):

- the **plan cache** maps a normalized plan shape (see
  :mod:`repro.serve.normalize`) + the engine's ``plan_epoch`` to the
  verified, ready-to-execute frame, skipping translate → optimize →
  plan-verify entirely on a hit;
- the **result cache** maps the full canonical query + epoch to the
  decoded rows, skipping execution entirely.

Both keys embed :attr:`~repro.core.prost.ProstEngine.plan_epoch`, so a
dataset reload or re-provisioned engine invalidates everything at once; a
``PV401`` lineage check (:mod:`repro.analysis.lineage`) re-verifies every
cached plan immediately before it executes as defense in depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..core.prost import ProstEngine
from ..core.results import ResultSet
from ..engine.dataframe import DataFrame
from ..errors import AdmissionRejectedError, ValidationError
from ..governor import YieldingLock
from ..sparql.algebra import SelectQuery
from ..sparql.parser import parse_sparql
from .cache import LruCache
from .normalize import canonicalize, plan_shape

#: Plan-cache capacity when the constructor is not given one.
DEFAULT_PLAN_CACHE_SIZE = 64

#: Result-cache capacity when the constructor is not given one.
DEFAULT_RESULT_CACHE_SIZE = 256

#: Tenant label charged when a caller does not name one.
DEFAULT_TENANT = "default"


@dataclass
class ServerStats:
    """Lifetime counters of one server (the ``serve.*`` metrics layer).

    Field names mirror the registry one-for-one
    (``repro.obs.metrics._SERVE_FIELDS``); a completeness test keeps the
    two in lockstep so a new counter cannot ship undocumented.
    """

    queries_served: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_evictions: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0
    admission_rejections: int = 0

    def to_dict(self) -> dict[str, int]:
        """Plain field → value mapping (JSON payloads, assertions)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}


@dataclass(frozen=True)
class PlanEntry:
    """One plan-cache value: a verified frame plus its lineage epoch."""

    frame: DataFrame
    description: str
    epoch: tuple


@dataclass(frozen=True)
class ResultEntry:
    """One result-cache value: immutable decoded rows plus the report."""

    rows: tuple
    report: object


class QueryServer:
    """Concurrent, cache-accelerated SPARQL serving over one engine.

    Args:
        engine: the loaded (or about-to-be-loaded) engine to serve.
        plan_cache_size: LRU capacity of the plan cache (0 disables).
        result_cache_size: LRU capacity of the result cache (0 disables).
        max_queries_per_tenant: per-tenant concurrent-slot cap applied at
            the engine's admission gate (``None`` leaves the gate's
            existing policy untouched).
        default_tenant: tenant label charged when a call names none.
    """

    def __init__(
        self,
        engine: ProstEngine,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        max_queries_per_tenant: int | None = None,
        default_tenant: str = DEFAULT_TENANT,
    ):
        self.engine = engine
        self.default_tenant = default_tenant
        if max_queries_per_tenant is not None:
            if max_queries_per_tenant < 1:
                raise ValidationError("max_queries_per_tenant must be at least 1")
            engine.governor.max_queries_per_tenant = max_queries_per_tenant
        # One server lock guards the stats object and both memo dicts; the
        # LRU caches synchronize internally, and the engine's prepared-
        # statement caches are guarded by the engine's own _cache_lock —
        # so no path ever nests two of these locks (CC103 stays clean).
        self._lock = YieldingLock()
        self.stats = ServerStats()  # guarded-by: _lock
        self._plan_cache: LruCache[PlanEntry] = LruCache(plan_cache_size)
        self._result_cache: LruCache[ResultEntry] = LruCache(result_cache_size)
        self._parse_cache: dict[str, SelectQuery] = {}  # guarded-by: _lock
        self._canonical_cache: dict[SelectQuery, SelectQuery] = {}  # guarded-by: _lock

    # -- dataset lifecycle -------------------------------------------------------

    def load(self, graph, tracer=None):
        """Load (or reload) the served dataset and invalidate both caches.

        The engine's ``plan_epoch`` bump already guarantees stale entries
        can never *hit*; clearing additionally returns their memory right
        away instead of waiting for LRU pressure.
        """
        report = self.engine.load(graph, tracer=tracer)
        self.invalidate()
        return report

    def invalidate(self) -> None:
        """Drop every cached plan and result (kept counters intact)."""
        self._plan_cache.clear()
        self._result_cache.clear()

    # -- serving -----------------------------------------------------------------

    def _parse(self, query: str | SelectQuery) -> SelectQuery:
        """Parse text through the server's own memo (AST inputs pass through).

        Parsing itself runs outside the lock — it is pure, so two threads
        racing on a cold entry at worst parse twice and agree; the lock
        only makes the dict operations themselves safe.
        """
        if isinstance(query, SelectQuery):
            return query
        with self._lock:
            parsed = self._parse_cache.get(query)
        if parsed is None:
            parsed = parse_sparql(query)
            with self._lock:
                self._parse_cache[query] = parsed
        return parsed

    def canonicalize_cached(self, parsed: SelectQuery) -> SelectQuery:
        """The canonical form of a parsed query, memoized per server.

        Canonicalization is pure, so the memo (keyed by the hashable
        parsed query itself) makes repeated servings of the same query
        skip the rename walk entirely; like :meth:`_parse`, the rename
        walk runs outside the lock and only the memo access is guarded.
        """
        with self._lock:
            canonical = self._canonical_cache.get(parsed)
        if canonical is None:
            canonical = canonicalize(parsed)
            with self._lock:
                self._canonical_cache[parsed] = canonical
        return canonical

    def sparql(
        self, query: str | SelectQuery, tenant: str | None = None, tracer=None
    ) -> ResultSet:
        """Serve one query for one tenant.

        Admission first, caches second: even a query the result cache could
        answer holds a (tenant-charged) governor slot while being served,
        so a tenant cannot dodge its cap by replaying cached queries.
        Raises :class:`~repro.errors.AdmissionRejectedError` when shed.
        """
        tenant = tenant if tenant is not None else self.default_tenant
        parsed = self._parse(query)
        try:
            with self.engine.governor.admit(tenant=tenant):
                return self._serve_admitted(parsed, tracer=tracer)
        except AdmissionRejectedError:
            with self._lock:
                self.stats.admission_rejections += 1
            raise

    def _serve_admitted(self, parsed: SelectQuery, tracer=None) -> ResultSet:
        """The cache-then-execute path, run while holding an admission slot."""
        with self._lock:
            self.stats.queries_served += 1
        canonical = self.canonicalize_cached(parsed)
        epoch = self.engine.plan_epoch
        names = tuple(variable.name for variable in parsed.projection)

        if self._result_cache.capacity:
            cached = self._result_cache.get((canonical, epoch))
            if cached is not None:
                with self._lock:
                    self.stats.result_cache_hits += 1
                # Positional rows are shared; only the variable names are
                # per-caller (isomorphic queries hit the same entry).
                return ResultSet(names, list(cached.rows), cached.report)
            with self._lock:
                self.stats.result_cache_misses += 1

        entry = self._plan_for(canonical, epoch)
        result = self.engine.execute_prepared(
            parsed, entry.frame, entry.description, tracer=tracer, admitted=True
        )
        if self._result_cache.capacity:
            self._result_cache.put(
                (canonical, epoch), ResultEntry(tuple(result.rows), result.report)
            )
        return result

    def _plan_for(self, canonical: SelectQuery, epoch: tuple) -> PlanEntry:
        """The (cached or freshly planned) entry for a canonical query.

        The plan-cache hot path: look up the stripped shape, PV401-verify a
        hit against the live engine (a stale lineage means evict-and-replan),
        and on a miss plan the full canonical query — modifiers included, so the
        static verifier sees exactly what a direct engine call would — and
        cache the (modifier-independent) frame under the stripped shape.
        """
        shape = plan_shape(canonical)
        entry = self._plan_cache.get((shape, epoch)) if self._plan_cache.capacity else None
        if entry is not None:
            # Defense in depth: the key already embeds the epoch, but a
            # cached plan is re-verified against the *live* engine right
            # before it executes.
            from ..analysis import verify_cached_plan

            if verify_cached_plan(entry.epoch, self.engine.plan_epoch):
                self._plan_cache.evict((shape, epoch))
                with self._lock:
                    self.stats.plan_cache_evictions += 1
                entry = None
        if entry is not None:
            with self._lock:
                self.stats.plan_cache_hits += 1
            return entry
        with self._lock:
            self.stats.plan_cache_misses += 1
        frame, description = self.engine.dataframe(canonical)
        entry = PlanEntry(frame, description, epoch)
        if self._plan_cache.capacity:
            lru_evicted = self._plan_cache.put((shape, epoch), entry)
            if lru_evicted:
                with self._lock:
                    self.stats.plan_cache_evictions += lru_evicted
        return entry

    def explain(self, query: str | SelectQuery) -> str:
        """EXPLAIN through the server: cached plans are annotated as such.

        A plan-cache hit renders the cached join tree and frame with a
        ``[cached plan]`` marker (without perturbing LRU order or hit/miss
        counts); a miss falls through to the engine's own EXPLAIN.
        """
        parsed = self._parse(query)
        shape = plan_shape(self.canonicalize_cached(parsed))
        entry = self._plan_cache.peek((shape, self.engine.plan_epoch))
        if entry is None:
            return self.engine.explain(parsed)
        return (
            f"== Join Tree == [cached plan]\n{entry.description}\n"
            f"== Engine Plan == [cached plan]\n{entry.frame.explain()}"
        )

    # -- introspection -----------------------------------------------------------

    @property
    def plan_cache_len(self) -> int:
        """Live plan-cache entries."""
        return len(self._plan_cache)

    @property
    def result_cache_len(self) -> int:
        """Live result-cache entries."""
        return len(self._result_cache)

    def tenant_snapshot(self) -> dict[str, dict[str, int]]:
        """Per-tenant admission accounting from the engine's governor."""
        return self.engine.governor.tenant_snapshot()

    def metrics_snapshot(self) -> dict[str, int | float]:
        """Registry-named ``serve.*`` snapshot of :attr:`stats`, read
        under the server lock so no counter is observed mid-update."""
        from ..obs.metrics import snapshot_server_stats

        with self._lock:
            return snapshot_server_stats(self.stats)
