"""Deterministic cooperative-interleaving harness (the dynamic half of the
concurrency analysis).

:mod:`repro.analysis.concurrency` proves locking discipline *statically*;
this module replays thread schedules *dynamically*. An
:class:`InterleaveScheduler` serializes a set of real threads so that
exactly one runs at a time, and at every *yield point* — instrumented lock
acquire/release, instrumented method entry/exit — a seeded RNG picks which
runnable thread proceeds. The same seed therefore replays the same
interleaving, instruction-for-instruction: a failing schedule is a
one-integer reproduction, printed in the failure message.

Three instruments place the yield points:

- :class:`InstrumentedLock` — a drop-in ``threading.Lock`` replacement
  that yields before acquiring, spins with try-acquire (so the scheduler
  never deadlocks *itself*), and detects genuine lock-order deadlocks by
  walking the waits-for graph (raising :class:`DeadlockError` with the
  cycle);
- :func:`instrument_methods` — wraps chosen bound methods of an object to
  yield at entry and exit;
- any code under test may call :meth:`InterleaveScheduler.yield_point`
  directly (it is a no-op on unregistered threads, so instrumented
  objects still work when used outside the harness).

``tests/serve/test_interleave.py`` uses this to prove the serving-layer
races fixed in this subsystem's PR stay fixed: cache eviction and
epoch-bump reload schedules keep results multiset-equal across every
replayed seed, while the *pre-fix* behavior (reinstated by monkeypatch)
is caught by at least one seed. Unless a test names its own seeds,
:func:`sweep` replays the first :data:`DEFAULT_INTERLEAVE_SEEDS` seeds.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..errors import DeadlockError, InterleaveError, SchedulerStallError

__all__ = [
    "DEFAULT_INTERLEAVE_SEEDS",
    "DEFAULT_MAX_STEPS",
    "DeadlockError",
    "InstrumentedLock",
    "InterleaveError",
    "InterleaveResult",
    "InterleaveScheduler",
    "SchedulerStallError",
    "instrument_methods",
    "replay_instructions",
    "sweep",
]

#: Seeds a :func:`sweep` replays when the test names none.
DEFAULT_INTERLEAVE_SEEDS = 10

#: Scheduler decisions before a run is declared stalled (a livelock guard;
#: real scenarios take a few hundred steps).
DEFAULT_MAX_STEPS = 100_000


def replay_instructions(seed: int, test_id: str = "") -> str:
    """A copy-pasteable reproduction line for one failing seed.

    The schedule is a pure function of the seed, so replaying the same
    seed replays the same interleaving.
    """
    target = test_id if test_id else "tests/serve/test_interleave.py"
    return (
        f"failing interleaving seed: {seed} (schedules are deterministic "
        f"per seed)\nreplay: PYTHONPATH=src python -m pytest {target} -x -q"
    )


def sweep(
    scenario: Callable[[int], None],
    seeds: Iterable[int] | None = None,
    test_id: str = "",
) -> None:
    """Run ``scenario(seed)`` for every seed, failing with replay help.

    The canonical test-side entry point: any exception (assertion,
    deadlock, stall) out of one seed's scenario is re-raised as an
    ``AssertionError`` carrying :func:`replay_instructions` for that seed.
    """
    for seed in seeds if seeds is not None else range(DEFAULT_INTERLEAVE_SEEDS):
        try:
            scenario(seed)
        except BaseException as exc:
            raise AssertionError(
                f"interleaving scenario failed under seed {seed}: {exc}\n"
                f"{replay_instructions(seed, test_id)}"
            ) from exc


@dataclass
class InterleaveResult:
    """Outcome of one scheduled run: per-thread returns, errors, schedule."""

    seed: int
    results: dict[str, Any] = field(default_factory=dict)
    errors: dict[str, BaseException] = field(default_factory=dict)
    trace: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every thread returned without raising."""
        return not self.errors

    def raise_errors(self) -> None:
        """Re-raise the first per-thread error (sorted by thread name)."""
        for name in sorted(self.errors):
            raise self.errors[name]


class InterleaveScheduler:
    """Seeded cooperative scheduler: one thread runs at a time.

    Registered threads park at every yield point; the scheduler picks the
    next runner by seeded RNG over the *sorted* runnable names, so the
    whole schedule is a deterministic function of ``seed``. Unregistered
    threads (e.g. the test's main thread touching an instrumented object
    during setup or assertion) pass through every yield point untouched.
    """

    def __init__(self, seed: int, max_steps: int = DEFAULT_MAX_STEPS):
        self.seed = seed
        self.max_steps = max_steps
        self._rng = random.Random(seed)
        self._cond = threading.Condition()
        self._registered: set[str] = set()
        self._runnable: set[str] = set()
        self._current: str | None = None
        self._steps = 0
        self._aborted = False
        #: Scheduler decisions, in order — the replayable schedule log.
        self.trace: list[str] = []
        #: Instrumented-lock name → owning thread name (waits-for graph).
        self.lock_owners: dict[str, str] = {}
        #: Blocked thread name → instrumented-lock name it wants.
        self.waiting_on: dict[str, str] = {}

    # -- thread-side protocol ----------------------------------------------------

    def register(self) -> None:
        """Enroll the calling thread and park until it is scheduled."""
        name = threading.current_thread().name
        with self._cond:
            self._registered.add(name)
            self._runnable.add(name)
            self._cond.notify_all()
            self._cond.wait_for(lambda: self._current == name or self._aborted)
            if self._aborted:
                raise SchedulerStallError("scheduler aborted before start")

    def yield_point(self, label: str = "") -> None:
        """Hand control back: the RNG picks who (possibly *this* thread)
        runs next. A no-op on threads never :meth:`register`-ed."""
        name = threading.current_thread().name
        with self._cond:
            if name not in self._registered:
                return
            self._pick(label)
            self._cond.wait_for(lambda: self._current == name or self._aborted)
            if self._aborted:
                raise SchedulerStallError(
                    f"scheduler aborted (seed {self.seed}, step {self._steps})"
                )

    def finish(self) -> None:
        """Retire the calling thread and schedule a successor."""
        name = threading.current_thread().name
        with self._cond:
            if name not in self._registered:
                return
            self._runnable.discard(name)
            self._registered.discard(name)
            self.waiting_on.pop(name, None)
            try:
                self._pick(f"finish:{name}")
            except SchedulerStallError:
                # The retiring thread's work is already done (or its error
                # already recorded); the stall surfaces through the threads
                # still parked at yield points.
                pass

    # -- lock bookkeeping (called by InstrumentedLock) ---------------------------

    def note_acquired(self, lock_name: str) -> None:
        """Record the calling thread as ``lock_name``'s owner."""
        name = threading.current_thread().name
        with self._cond:
            self.lock_owners[lock_name] = name
            self.waiting_on.pop(name, None)

    def note_released(self, lock_name: str) -> None:
        """Clear ``lock_name``'s owner."""
        with self._cond:
            self.lock_owners.pop(lock_name, None)

    def note_blocked(self, lock_name: str) -> None:
        """Record the calling thread as waiting, and detect waits-for
        cycles: A wants a lock held by B, B wants one held by A (possibly
        through more hops) — a deterministic deadlock under this schedule.
        """
        name = threading.current_thread().name
        with self._cond:
            if name not in self._registered:
                return
            self.waiting_on[name] = lock_name
            chain = [name]
            wanted: str | None = lock_name
            while wanted is not None:
                owner = self.lock_owners.get(wanted)
                if owner is None:
                    return
                if owner in chain:
                    cycle = " -> ".join(
                        f"{thread} (wants {self.waiting_on[thread]})"
                        for thread in chain
                    )
                    raise DeadlockError(
                        f"lock-order deadlock under seed {self.seed}: "
                        f"{cycle} -> {owner}"
                    )
                chain.append(owner)
                wanted = self.waiting_on.get(owner)

    # -- scheduling core ---------------------------------------------------------

    def _pick(self, label: str = "") -> None:
        """Choose the next runner (caller must hold ``_cond``)."""
        candidates = sorted(self._runnable)
        if not candidates:
            self._current = None
            self._cond.notify_all()
            return
        self._steps += 1
        if self._steps > self.max_steps:
            self._aborted = True
            self._cond.notify_all()
            raise SchedulerStallError(
                f"no progress after {self.max_steps} scheduling steps "
                f"(seed {self.seed}); last decisions: {self.trace[-10:]}"
            )
        if len(candidates) == 1:
            self._current = candidates[0]
        else:
            self._current = candidates[self._rng.randrange(len(candidates))]
        self.trace.append(f"{self._current}{f'@{label}' if label else ''}")
        self._cond.notify_all()

    def abort(self) -> None:
        """Wake every parked thread with a stall error (timeout path)."""
        with self._cond:
            self._aborted = True
            self._cond.notify_all()

    # -- runner ------------------------------------------------------------------

    def run(
        self,
        thunks: dict[str, Callable[[], Any]],
        timeout_sec: float = 30.0,
    ) -> InterleaveResult:
        """Run every thunk on its own scheduled thread; join them all.

        Threads are named by their ``thunks`` key (names drive the RNG's
        sorted candidate order, so rename ⇒ different schedules). Raises
        :class:`SchedulerStallError` if the run exceeds ``timeout_sec`` —
        with the schedule tail and replay seed in the message, since a
        wall-clock hang here almost always means a *real* blocking call
        (an un-instrumented lock or condition) swallowed the only
        runnable thread.
        """
        result = InterleaveResult(seed=self.seed)

        def body(name: str, thunk: Callable[[], Any]) -> None:
            self.register()
            try:
                result.results[name] = thunk()
            except BaseException as exc:  # reported via result.errors
                result.errors[name] = exc
            finally:
                self.finish()

        threads = [
            threading.Thread(target=body, args=(name, thunk), name=name, daemon=True)
            for name, thunk in sorted(thunks.items())
        ]
        for thread in threads:
            thread.start()
        with self._cond:
            ready = self._cond.wait_for(
                lambda: len(self._registered) >= len(threads), timeout=timeout_sec
            )
            if not ready:
                self._aborted = True
                self._cond.notify_all()
                raise SchedulerStallError("threads failed to register")
            self._pick("start")
        deadline = time.monotonic() + timeout_sec
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        if any(thread.is_alive() for thread in threads):
            self.abort()
            for thread in threads:
                thread.join(1.0)
            stuck = [t.name for t in threads if t.is_alive()]
            raise SchedulerStallError(
                f"interleaved run timed out after {timeout_sec:g}s under "
                f"seed {self.seed}; stuck threads: {stuck or 'none (woken)'}; "
                f"schedule tail: {self.trace[-15:]}\n"
                f"{replay_instructions(self.seed)}"
            )
        result.trace = list(self.trace)
        return result


class InstrumentedLock:
    """A ``threading.Lock`` stand-in whose acquire/release are yield points.

    Swap it into the object under test (``obj._lock =
    InstrumentedLock(scheduler, "obj._lock")``): registered threads then
    hand the scheduler control around every critical section, and blocked
    acquisition spins with try-acquire — reporting to the scheduler each
    failed attempt so waits-for cycles surface as :class:`DeadlockError`
    instead of hanging the suite.
    """

    def __init__(self, scheduler: InterleaveScheduler, name: str):
        self._scheduler = scheduler
        self.name = name
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not blocking:
            acquired = self._inner.acquire(blocking=False)
            if acquired:
                self._scheduler.note_acquired(self.name)
            return acquired
        self._scheduler.yield_point(f"acquire:{self.name}")
        while not self._inner.acquire(blocking=False):
            self._scheduler.note_blocked(self.name)
            self._scheduler.yield_point(f"blocked:{self.name}")
        self._scheduler.note_acquired(self.name)
        return True

    def release(self) -> None:
        self._inner.release()
        self._scheduler.note_released(self.name)
        self._scheduler.yield_point(f"release:{self.name}")

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def instrument_methods(
    scheduler: InterleaveScheduler,
    obj: Any,
    method_names: Iterable[str],
    prefix: str = "",
) -> None:
    """Wrap bound methods of ``obj`` so entry and exit are yield points.

    Instance-level wrapping (``setattr`` on the object, not the class), so
    only the object under test is instrumented and only for this run.
    """
    label_prefix = prefix or type(obj).__name__
    for method_name in method_names:
        original = getattr(obj, method_name)

        def wrapper(
            *args: Any,
            __original: Callable[..., Any] = original,
            __label: str = f"{label_prefix}.{method_name}",
            **kwargs: Any,
        ) -> Any:
            scheduler.yield_point(f"enter:{__label}")
            try:
                return __original(*args, **kwargs)
            finally:
                scheduler.yield_point(f"exit:{__label}")

        setattr(obj, method_name, wrapper)
