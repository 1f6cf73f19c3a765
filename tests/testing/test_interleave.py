"""Unit tests of the cooperative-interleaving harness itself.

The serving-layer race tests (``tests/serve/test_interleave.py``) trust
the scheduler to be deterministic, serialized, and deadlock-detecting;
this file proves those three properties on toy scenarios first.
"""

import threading

import pytest

from repro.testing.interleave import (
    DEFAULT_INTERLEAVE_SEEDS,
    DeadlockError,
    InstrumentedLock,
    InterleaveScheduler,
    SchedulerStallError,
    instrument_methods,
    replay_instructions,
    sweep,
)


def _increment_scenario(seed: int):
    """Two threads bump a shared counter 5 times each under one lock."""
    scheduler = InterleaveScheduler(seed)
    lock = InstrumentedLock(scheduler, "counter_lock")
    state = {"value": 0}

    def bump():
        for _ in range(5):
            with lock:
                state["value"] += 1

    result = scheduler.run({"alpha": bump, "beta": bump}, timeout_sec=10)
    assert result.ok, result.errors
    return state["value"], tuple(result.trace)


class TestScheduler:
    def test_serialized_execution_is_correct(self):
        for seed in range(5):
            value, _ = _increment_scenario(seed)
            assert value == 10

    def test_same_seed_replays_same_schedule(self):
        for seed in range(5):
            _, first = _increment_scenario(seed)
            _, second = _increment_scenario(seed)
            assert first == second

    def test_different_seeds_explore_different_schedules(self):
        traces = {_increment_scenario(seed)[1] for seed in range(8)}
        assert len(traces) > 1

    def test_one_thread_at_a_time(self):
        """No two registered threads are ever inside the 'running' window
        concurrently — the harness's core guarantee."""
        scheduler = InterleaveScheduler(3)
        active = {"count": 0, "max": 0}
        meta_lock = threading.Lock()

        def body():
            for _ in range(10):
                with meta_lock:
                    active["count"] += 1
                    active["max"] = max(active["max"], active["count"])
                # No yield here: the window between two yield points must
                # belong to exactly one thread.
                with meta_lock:
                    active["count"] -= 1
                scheduler.yield_point("step")

        result = scheduler.run({"a": body, "b": body, "c": body}, timeout_sec=10)
        assert result.ok, result.errors
        assert active["max"] == 1

    def test_unregistered_thread_passes_through(self):
        """Yield points and instrumented locks are no-ops off-harness, so
        instrumented objects stay usable from the test's main thread."""
        scheduler = InterleaveScheduler(0)
        lock = InstrumentedLock(scheduler, "L")
        scheduler.yield_point("main")  # must not park
        with lock:
            pass
        assert not lock.locked()

    def test_step_budget_stalls_runaway_runs(self):
        scheduler = InterleaveScheduler(0, max_steps=20)

        def spin():
            while True:
                scheduler.yield_point("spin")

        result = scheduler.run({"a": spin, "b": spin}, timeout_sec=10)
        assert result.errors
        assert all(
            isinstance(error, SchedulerStallError)
            for error in result.errors.values()
        )

    def test_thread_return_values_are_collected(self):
        scheduler = InterleaveScheduler(1)
        result = scheduler.run({"x": lambda: 41, "y": lambda: 42}, timeout_sec=10)
        assert result.ok
        assert result.results == {"x": 41, "y": 42}


class TestDeadlockDetection:
    @staticmethod
    def _opposite_order_scenario(seed: int):
        scheduler = InterleaveScheduler(seed)
        first = InstrumentedLock(scheduler, "first")
        second = InstrumentedLock(scheduler, "second")

        def forward():
            with first:
                scheduler.yield_point("mid")
                with second:
                    pass

        def backward():
            with second:
                scheduler.yield_point("mid")
                with first:
                    pass

        return scheduler.run(
            {"forward": forward, "backward": backward}, timeout_sec=10
        )

    def test_opposite_lock_order_raises_deadlock_error(self):
        deadlocked = [
            seed
            for seed in range(10)
            if any(
                isinstance(error, DeadlockError)
                for error in self._opposite_order_scenario(seed).errors.values()
            )
        ]
        # Some seeds schedule the two critical sections serially (no
        # deadlock is reachable); enough must interleave them.
        assert deadlocked, "no seed in 0..9 drove the lock-order deadlock"

    def test_deadlock_message_names_the_cycle(self):
        for seed in range(10):
            result = self._opposite_order_scenario(seed)
            for error in result.errors.values():
                if isinstance(error, DeadlockError):
                    message = str(error)
                    assert "deadlock" in message
                    assert "wants" in message
                    return
        pytest.fail("no deadlock observed")

    def test_consistent_lock_order_never_deadlocks(self):
        for seed in range(10):
            scheduler = InterleaveScheduler(seed)
            first = InstrumentedLock(scheduler, "first")
            second = InstrumentedLock(scheduler, "second")

            def nested():
                with first:
                    scheduler.yield_point("mid")
                    with second:
                        pass

            result = scheduler.run({"a": nested, "b": nested}, timeout_sec=10)
            assert result.ok, result.errors


class TestInstrumentation:
    def test_instrument_methods_adds_yield_points(self):
        class Box:
            def __init__(self):
                self.value = 0

            def bump(self):
                self.value += 1
                return self.value

        scheduler = InterleaveScheduler(0)
        box = Box()
        instrument_methods(scheduler, box, ["bump"])
        result = scheduler.run({"only": box.bump}, timeout_sec=10)
        assert result.ok and result.results["only"] == 1
        assert any("enter:Box.bump" in step for step in result.trace)
        assert any("exit:Box.bump" in step for step in result.trace)


class TestSeedPlumbing:
    def test_sweep_replays_the_default_seeds(self):
        seen = []
        sweep(seen.append)
        assert seen == list(range(DEFAULT_INTERLEAVE_SEEDS))

    def test_replay_instructions_name_seed_and_target(self):
        text = replay_instructions(7, "tests/serve/test_interleave.py")
        assert "seed: 7" in text
        assert "tests/serve/test_interleave.py" in text

    def test_sweep_attaches_replay_help(self):
        def scenario(seed):
            if seed == 2:
                raise ValueError("boom")

        with pytest.raises(AssertionError) as excinfo:
            sweep(scenario, seeds=range(5), test_id="tests/x.py")
        assert "seed 2" in str(excinfo.value)
        assert "tests/x.py" in str(excinfo.value)
