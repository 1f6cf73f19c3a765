"""Admission control: concurrent-query gating with bounded queueing.

The front-door half of the governor. A :class:`Governor` owns two limits:

- **slots**: at most ``max_concurrent_queries`` queries run at once;
- **aggregate memory**: when a per-query budget is configured, admitted
  queries reserve it, and total reservations may not exceed
  ``budget × slots`` — an engine-wide memory ceiling.

A query that cannot be admitted immediately waits in a *bounded* queue;
when the queue is full (or the wait times out) it is shed with
:class:`~repro.errors.AdmissionRejectedError` instead of piling up —
load-shedding rather than collapse, the same posture PHD-Store argues for
under live overload.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from ..errors import AdmissionRejectedError, ValidationError

#: Default bound on queries waiting for a slot before load-shedding.
DEFAULT_MAX_QUEUE_DEPTH = 16

#: Default seconds a queued query waits for a slot before being shed.
DEFAULT_QUEUE_TIMEOUT_SEC = 30.0


class YieldingLock:
    """A ``threading.Lock`` whose blocking acquire hands the GIL to the
    holder instead of sleeping on the lock — the lock of every structure
    the serving path shares between client threads (admission, the
    server's stats and memos, the plan and result caches, the engine's
    parse and plan memos).

    Every request takes these locks, result-cache hits included. A CPython
    thread that sleeps on a held lock wakes up owning it and only then
    waits for the GIL, so the other thread blocks on its next acquire in
    turn: two client threads convoy, and a 20 µs cache hit waits out the
    other client's whole query. Retrying a non-blocking acquire after
    ``time.sleep(0)`` never holds the lock while waiting for the GIL. The
    locks guard a few statements each (``Condition.wait`` releases its
    lock), so the retry loop is short.
    """

    __slots__ = ("_lock",)

    def __init__(self):
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """``threading.Lock.acquire``, yielding between attempts."""
        lock = self._lock
        if lock.acquire(False):
            return True
        if not blocking:
            return False
        deadline = None if timeout < 0 else time.monotonic() + timeout
        while not lock.acquire(False):
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0)
        return True

    def release(self) -> None:
        """Release the lock."""
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class Governor:
    """Engine-level admission controller (thread-safe).

    Attributes:
        max_concurrent_queries: slot count.
        memory_budget_bytes: per-query reservation (``None`` disables the
            aggregate-memory limit).
        max_queue_depth: waiting queries beyond this are shed immediately.
        queue_timeout_sec: max seconds a query waits for a slot.
        max_queries_per_tenant: per-tenant slot cap applied to admissions
            carrying a tenant label (``None`` disables fairness capping).
        admitted / rejected / peak_concurrent: lifetime stats.
    """

    def __init__(
        self,
        max_concurrent_queries: int = 8,
        memory_budget_bytes: int | None = None,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        queue_timeout_sec: float = DEFAULT_QUEUE_TIMEOUT_SEC,
        max_queries_per_tenant: int | None = None,
    ):
        if max_concurrent_queries < 1:
            raise ValidationError("max_concurrent_queries must be at least 1")
        if max_queue_depth < 0:
            raise ValidationError("max_queue_depth must be non-negative")
        if queue_timeout_sec <= 0:
            raise ValidationError("queue_timeout_sec must be positive")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValidationError("memory budget must be positive")
        if max_queries_per_tenant is not None and max_queries_per_tenant < 1:
            raise ValidationError("max_queries_per_tenant must be at least 1")
        self.max_concurrent_queries = max_concurrent_queries
        self.memory_budget_bytes = memory_budget_bytes
        self.max_queue_depth = max_queue_depth
        self.queue_timeout_sec = queue_timeout_sec
        self.max_queries_per_tenant = max_queries_per_tenant
        self._condition = threading.Condition(YieldingLock())
        self.admitted = 0  # guarded-by: _condition
        self.rejected = 0  # guarded-by: _condition
        self.peak_concurrent = 0  # guarded-by: _condition
        self._active = 0  # guarded-by: _condition
        self._active_bytes = 0  # guarded-by: _condition
        self._waiting = 0  # guarded-by: _condition
        self._tenant_active: dict[str, int] = {}  # guarded-by: _condition
        self._tenant_admitted: dict[str, int] = {}  # guarded-by: _condition
        self._tenant_rejected: dict[str, int] = {}  # guarded-by: _condition
        self._tenant_reserved_bytes: dict[str, int] = {}  # guarded-by: _condition

    @classmethod
    def from_config(cls, config) -> "Governor":
        """Build from a ``ClusterConfig`` (slots + per-query budget)."""
        return cls(
            max_concurrent_queries=config.max_concurrent_queries,
            memory_budget_bytes=config.memory_budget_bytes,
        )

    @property
    def active_queries(self) -> int:
        """Queries currently holding a slot."""
        with self._condition:
            return self._active

    @property
    def aggregate_memory_limit(self) -> int | None:
        """Engine-wide reservation ceiling (``budget × slots``), if any."""
        if self.memory_budget_bytes is None:
            return None
        return self.memory_budget_bytes * self.max_concurrent_queries

    def _admissible(self, reserve_bytes: int, tenant: str | None = None) -> bool:  # requires-lock: _condition
        if self._active >= self.max_concurrent_queries:
            return False
        if (
            tenant is not None
            and self.max_queries_per_tenant is not None
            and self._tenant_active.get(tenant, 0) >= self.max_queries_per_tenant
        ):
            return False
        limit = self.aggregate_memory_limit
        return limit is None or self._active_bytes + reserve_bytes <= limit

    def _record_rejection(self, tenant: str | None) -> None:  # requires-lock: _condition
        self.rejected += 1
        if tenant is not None:
            self._tenant_rejected[tenant] = self._tenant_rejected.get(tenant, 0) + 1

    @contextmanager
    def admit(self, reserve_bytes: int | None = None, tenant: str | None = None):
        """Hold one query slot (and its memory reservation) for the body.

        With a ``tenant`` label the slot is charged to that tenant's
        account: the per-tenant cap (when configured) applies, and the
        tenant's admitted/rejected/reserved-bytes totals — the serve
        layer's per-tenant cost attribution — are updated.

        Raises :class:`~repro.errors.AdmissionRejectedError` when the wait
        queue is full or the slot wait times out.
        """
        reserve = (
            reserve_bytes
            if reserve_bytes is not None
            else (self.memory_budget_bytes or 0)
        )
        with self._condition:
            if not self._admissible(reserve, tenant):
                if self._waiting >= self.max_queue_depth:
                    self._record_rejection(tenant)
                    raise AdmissionRejectedError(
                        f"admission queue full ({self._waiting} waiting, "
                        f"{self._active} active of "
                        f"{self.max_concurrent_queries} slots); query shed"
                    )
                self._waiting += 1
                try:
                    granted = self._condition.wait_for(
                        lambda: self._admissible(reserve, tenant),
                        timeout=self.queue_timeout_sec,
                    )
                finally:
                    self._waiting -= 1
                if not granted:
                    self._record_rejection(tenant)
                    raise AdmissionRejectedError(
                        f"no query slot within {self.queue_timeout_sec:g}s "
                        f"({self._active} active of "
                        f"{self.max_concurrent_queries} slots); query shed"
                    )
            self._active += 1
            self._active_bytes += reserve
            self.admitted += 1
            if tenant is not None:
                self._tenant_active[tenant] = self._tenant_active.get(tenant, 0) + 1
                self._tenant_admitted[tenant] = (
                    self._tenant_admitted.get(tenant, 0) + 1
                )
                self._tenant_reserved_bytes[tenant] = (
                    self._tenant_reserved_bytes.get(tenant, 0) + reserve
                )
            if self._active > self.peak_concurrent:
                self.peak_concurrent = self._active
        try:
            yield self
        finally:
            with self._condition:
                self._active -= 1
                self._active_bytes -= reserve
                if tenant is not None:
                    self._tenant_active[tenant] -= 1
                self._condition.notify_all()

    def tenant_snapshot(self) -> dict[str, dict[str, int]]:
        """Per-tenant accounting: active, admitted, rejected, reserved bytes.

        Tenants appear once they have been admitted or rejected at least
        once; ``reserved_bytes`` is the lifetime total of memory
        reservations the tenant's admitted queries carried.
        """
        with self._condition:
            names = sorted(
                set(self._tenant_admitted) | set(self._tenant_rejected)
            )
            return {
                name: {
                    "active": self._tenant_active.get(name, 0),
                    "admitted": self._tenant_admitted.get(name, 0),
                    "rejected": self._tenant_rejected.get(name, 0),
                    "reserved_bytes": self._tenant_reserved_bytes.get(name, 0),
                }
                for name in names
            }

    def __repr__(self) -> str:
        with self._condition:
            return (
                f"Governor(slots={self.max_concurrent_queries}, "
                f"active={self._active}, admitted={self.admitted}, "
                f"rejected={self.rejected})"
            )
