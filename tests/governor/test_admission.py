"""Admission control: slots, bounded queueing, load-shedding, reservations."""

import threading

import pytest

from repro.engine import ClusterConfig
from repro.errors import AdmissionRejectedError, ValidationError
from repro.governor import Governor, YieldingLock


class TestValidation:
    def test_bad_limits_rejected(self):
        with pytest.raises(ValidationError):
            Governor(max_concurrent_queries=0)
        with pytest.raises(ValidationError):
            Governor(max_queue_depth=-1)
        with pytest.raises(ValidationError):
            Governor(queue_timeout_sec=0)
        with pytest.raises(ValidationError):
            Governor(memory_budget_bytes=0)


class TestSlots:
    def test_admits_up_to_the_slot_count(self):
        governor = Governor(max_concurrent_queries=2)
        with governor.admit():
            with governor.admit():
                assert governor.active_queries == 2
        assert governor.active_queries == 0
        assert governor.admitted == 2
        assert governor.peak_concurrent == 2

    def test_full_queue_sheds_immediately(self):
        governor = Governor(max_concurrent_queries=1, max_queue_depth=0)
        with governor.admit():
            with pytest.raises(AdmissionRejectedError, match="queue full"):
                with governor.admit():
                    pass
        assert governor.rejected == 1

    def test_queue_wait_times_out(self):
        governor = Governor(
            max_concurrent_queries=1, max_queue_depth=4, queue_timeout_sec=0.05
        )
        with governor.admit():
            with pytest.raises(AdmissionRejectedError, match="no query slot"):
                with governor.admit():
                    pass
        assert governor.rejected == 1

    def test_released_slot_is_granted_to_a_waiter(self):
        governor = Governor(
            max_concurrent_queries=1, max_queue_depth=4, queue_timeout_sec=5.0
        )
        entered = threading.Event()
        release = threading.Event()
        outcomes: list[str] = []

        def holder():
            with governor.admit():
                entered.set()
                release.wait(timeout=5.0)

        def waiter():
            entered.wait(timeout=5.0)
            try:
                with governor.admit():
                    outcomes.append("admitted")
            except AdmissionRejectedError:
                outcomes.append("rejected")

        threads = [threading.Thread(target=holder), threading.Thread(target=waiter)]
        for thread in threads:
            thread.start()
        entered.wait(timeout=5.0)
        release.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert outcomes == ["admitted"]
        assert governor.admitted == 2
        assert governor.rejected == 0
        assert governor.active_queries == 0


class TestMemoryReservations:
    def test_aggregate_limit_is_budget_times_slots(self):
        governor = Governor(max_concurrent_queries=4, memory_budget_bytes=100)
        assert governor.aggregate_memory_limit == 400
        assert Governor(max_concurrent_queries=4).aggregate_memory_limit is None

    def test_oversized_reservation_is_shed(self):
        governor = Governor(
            max_concurrent_queries=4, memory_budget_bytes=100, max_queue_depth=0
        )
        with governor.admit(reserve_bytes=300):
            # 300 + 200 > 400: second query cannot reserve and the queue is
            # zero-depth, so it sheds instead of waiting.
            with pytest.raises(AdmissionRejectedError):
                with governor.admit(reserve_bytes=200):
                    pass
            with governor.admit(reserve_bytes=100):
                pass  # exactly at the ceiling is admissible

    def test_default_reservation_is_the_per_query_budget(self):
        governor = Governor(
            max_concurrent_queries=2, memory_budget_bytes=100, max_queue_depth=0
        )
        with governor.admit():
            with governor.admit():
                assert governor.active_queries == 2


class TestFromConfig:
    def test_reads_the_cluster_config_fields(self):
        config = ClusterConfig(max_concurrent_queries=3, memory_budget_bytes=2048)
        governor = Governor.from_config(config)
        assert governor.max_concurrent_queries == 3
        assert governor.memory_budget_bytes == 2048

    def test_engine_facade_gates_queries_through_its_governor(self):
        from repro.core.prost import ProstEngine
        from repro.rdf.graph import Graph

        engine = ProstEngine(
            num_workers=2,
            cluster_config=ClusterConfig(num_workers=2, max_concurrent_queries=2),
        )
        engine.load(Graph.from_ntriples("<http://x/a> <http://x/p> <http://x/b> ."))
        engine.sparql("SELECT ?s WHERE { ?s <http://x/p> ?o }")
        assert engine.governor.admitted == 1
        assert engine.governor.active_queries == 0


class TestYieldingLock:
    """The serving path's lock keeps ``threading.Lock`` semantics."""

    def test_non_blocking_and_timed_acquire_fail_while_held(self):
        lock = YieldingLock()
        assert lock.acquire()
        assert not lock.acquire(blocking=False)
        assert not lock.acquire(timeout=0.01)
        lock.release()
        with lock:
            assert not lock.acquire(blocking=False)
        assert lock.acquire(blocking=False)
        lock.release()

    def test_blocked_thread_gets_the_lock_once_released(self):
        lock = YieldingLock()
        lock.acquire()
        got = []
        waiter = threading.Thread(target=lambda: got.append(lock.acquire(timeout=5)))
        waiter.start()
        waiter.join(timeout=0.05)
        assert got == []
        lock.release()
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        assert got == [True]

    def test_condition_wait_and_notify(self):
        condition = threading.Condition(YieldingLock())
        ready = []

        def produce():
            with condition:
                ready.append(1)
                condition.notify_all()

        with condition:
            producer = threading.Thread(target=produce)
            producer.start()
            assert condition.wait_for(lambda: ready, timeout=5)
        producer.join(timeout=5)
        assert not producer.is_alive()
