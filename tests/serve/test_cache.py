"""The LRU cache: eviction order, counters, the disabled state, and the
stats invariants under genuinely concurrent access."""

import random
import threading

import pytest

from repro.errors import ValidationError
from repro.serve import LruCache


class TestLruCache:
    def test_put_get_roundtrip(self):
        cache = LruCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 0

    def test_miss_counts(self):
        cache = LruCache(2)
        assert cache.get("absent") is None
        assert cache.misses == 1

    def test_evicts_least_recently_used(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # bump "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_peek_has_no_side_effects(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.hits == 0 and cache.misses == 0
        cache.put("c", 3)  # without the peek bump, "a" is still LRU
        assert cache.peek("a") is None

    def test_put_overwrites_in_place(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2
        assert cache.evictions == 0

    def test_evict_and_clear(self):
        cache = LruCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.evict("a")
        assert cache.peek("a") is None and len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1  # counters survive clear()

    def test_capacity_zero_disables(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.capacity == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            LruCache(-1)

    def test_put_reports_its_own_eviction(self):
        """put() returns how many LRU entries *this* insert displaced, so
        concurrent callers never need a racy before/after counter read."""
        cache = LruCache(2)
        assert cache.put("a", 1) == 0
        assert cache.put("b", 2) == 0
        assert cache.put("a", 10) == 0  # refresh, not an eviction
        assert cache.put("c", 3) == 1  # displaces "b"
        assert cache.evictions == 1

    def test_snapshot_is_complete(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.snapshot() == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "size": 2,
        }


class TestConcurrentHammering:
    """N real threads hammering get/put/evict on a capacity-2 cache, with
    barrier checkpoints asserting the cross-counter invariants on an
    atomic :meth:`LruCache.snapshot` while every thread is quiesced."""

    THREADS = 4
    CHECKPOINTS = 5
    OPS_PER_PHASE = 120
    KEYS = tuple(f"k{i}" for i in range(6))

    def test_stats_invariants_hold_at_every_checkpoint(self):
        cache = LruCache(2)
        # Per-thread exact op accounting, summed only while the barrier
        # holds every worker parked (so the totals cannot be mid-update).
        lookups = [0] * self.THREADS
        puts = [0] * self.THREADS
        explicit_evictions = [0] * self.THREADS
        lru_evictions = [0] * self.THREADS
        checks = {"count": 0}
        errors: list[BaseException] = []

        def checkpoint():
            snapshot = cache.snapshot()
            assert snapshot["hits"] >= 0 and snapshot["misses"] >= 0
            assert snapshot["hits"] + snapshot["misses"] == sum(lookups), (
                f"lookup accounting torn at checkpoint: {snapshot} "
                f"vs {sum(lookups)} issued"
            )
            assert snapshot["size"] <= cache.capacity
            assert (
                snapshot["evictions"]
                == sum(lru_evictions) + sum(explicit_evictions)
            )
            assert snapshot["evictions"] <= sum(puts) + sum(explicit_evictions)
            checks["count"] += 1

        barrier = threading.Barrier(self.THREADS, action=checkpoint)

        def worker(worker_id: int) -> None:
            rng = random.Random(worker_id)
            try:
                for _ in range(self.CHECKPOINTS):
                    for _ in range(self.OPS_PER_PHASE):
                        key = self.KEYS[rng.randrange(len(self.KEYS))]
                        roll = rng.random()
                        if roll < 0.5:
                            cache.get(key)
                            lookups[worker_id] += 1
                        elif roll < 0.9:
                            lru_evictions[worker_id] += cache.put(key, worker_id)
                            puts[worker_id] += 1
                        else:
                            if cache.evict(key):
                                explicit_evictions[worker_id] += 1
                    barrier.wait()
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                barrier.abort()

        threads = [
            threading.Thread(target=worker, args=(worker_id,), name=f"hammer-{worker_id}")
            for worker_id in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        if errors:
            raise errors[0]
        assert checks["count"] == self.CHECKPOINTS
        final = cache.snapshot()
        assert final["hits"] + final["misses"] == sum(lookups)
        assert final["size"] <= cache.capacity
