"""A small thread-safe LRU cache for the serve layer.

One implementation backs both server caches: the **plan cache** (canonical
plan shape → verified, ready-to-execute frame) and the **result cache**
(full canonical query → decoded rows). Both key on values that embed the
engine's :attr:`~repro.core.prost.ProstEngine.plan_epoch`, so a dataset
reload changes every key and stale entries can never hit — they simply age
out of the LRU order.

Locking discipline: every mutable attribute is ``# guarded-by: _lock``
(the convention the :mod:`repro.analysis.concurrency` checker enforces),
including the counters — :meth:`snapshot` reads several of them together
and must never observe a torn update.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

from ..errors import ValidationError
from ..governor import YieldingLock

V = TypeVar("V")

#: Sentinel distinguishing "miss" from a cached ``None`` value.
_MISS = object()


class LruCache(Generic[V]):
    """Least-recently-used mapping with hit/miss/eviction accounting.

    Thread-safe: the serve layer calls into it from concurrent client
    threads. A ``capacity`` of ``0`` disables the cache entirely — every
    :meth:`get` misses and :meth:`put` is a no-op — which is how a
    measurement takes the uncached pipeline on its own.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValidationError("cache capacity must be non-negative")
        self.capacity = capacity
        self._lock = YieldingLock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self._entries: OrderedDict[Hashable, V] = OrderedDict()  # guarded-by: _lock

    def __len__(self) -> int:
        """Live entry count (taken under the lock: ``OrderedDict`` resizes
        are not atomic against concurrent writers)."""
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> V | None:
        """The cached value, bumped to most-recently-used; ``None`` on miss."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value  # type: ignore[return-value]

    def peek(self, key: Hashable) -> V | None:
        """The cached value without touching LRU order or hit/miss counts
        (EXPLAIN uses this so inspecting a plan never perturbs the cache)."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            return None if value is _MISS else value  # type: ignore[return-value]

    def put(self, key: Hashable, value: V) -> int:
        """Insert (or refresh) an entry, evicting the LRU one when full.

        Returns the number of LRU evictions this insert performed (0 or 1)
        so callers can attribute evictions to their own puts without a
        racy read-the-counter-before-and-after dance.
        """
        if self.capacity == 0:
            return 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return 0
            evicted = 0
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted = 1
            self._entries[key] = value
            return evicted

    def evict(self, key: Hashable) -> bool:
        """Drop one entry by key; returns whether it was present."""
        with self._lock:
            if key in self._entries:
                del self._entries[key]
                self.evictions += 1
                return True
            return False

    def clear(self) -> None:
        """Drop every entry (hit/miss/eviction counters are kept)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict[str, int]:
        """One consistent view of the counters and size, taken atomically.

        The concurrent-hammering tests assert cross-counter invariants
        (``hits + misses == lookups``, ``size <= capacity``) against this;
        reading the attributes one by one could tear between updates.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries),
            }
