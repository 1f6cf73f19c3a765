"""The per-query governor context: budget + deadline + spill lifecycle.

One :class:`GovernorContext` is attached to each query's
``ExecutionMetrics`` (the same non-counter side-channel the fault injector
uses), so the executor reaches it through the ``metrics`` object it
already threads everywhere — no new plumbing, and one ``is None`` check of
overhead when governance is off.

The context is the single decision point for the degradation ladder:

1. a broadcast build side over budget degrades to a shuffle join
   (``governor.degraded_joins``);
2. a hash-join build over budget runs the grace-hash spill kernel
   (``governor.spills`` / ``spill_bytes`` / ``spill_partitions``);
3. non-spillable wide sites (explode, distinct, aggregate) record
   the trip (``governor.budget_trips``) and proceed — observability
   without wrong answers.

Every decision input (the byte estimates, the seeded memory-pressure
shrinks, the simulated retry waits) is deterministic, so a query takes the
same rungs of the ladder on every run.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Callable

from ..errors import QueryCancelledError, QueryTimeoutError
from .budget import MemoryBudget
from .deadline import Deadline
from .spill import SpillStore


class GovernorContext:
    """Per-query governance state.

    Attributes:
        budget: the memory budget, or ``None`` when unbudgeted.
        deadline: the query deadline, or ``None`` when untimed.
        spill_root: directory spill files go under (system temp dir when
            not configured); the per-query directory inside it is created
            lazily on first spill and always removed by :meth:`cleanup`.
        spill_stores: every :class:`SpillStore` this query opened, so the
            lifecycle tests can audit the files written.
    """

    def __init__(
        self,
        budget_bytes: int | None = None,
        timeout_sec: float | None = None,
        spill_root: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.budget = MemoryBudget(budget_bytes) if budget_bytes is not None else None
        self.deadline = Deadline(timeout_sec, clock) if timeout_sec is not None else None
        self.spill_root = spill_root
        self.spill_stores: list[SpillStore] = []
        self._query_spill_dir: str | None = None
        self._spill_seq = 0
        self._cancel_reason: str | None = None

    # -- stage-boundary polling ------------------------------------------------

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Request cooperative cancellation; honoured at the next poll."""
        self._cancel_reason = reason

    def on_stage(self, metrics) -> None:
        """Stage-boundary poll: cancellation first, then the deadline.

        Raises :class:`~repro.errors.QueryCancelledError` or
        :class:`~repro.errors.QueryTimeoutError` carrying the partial
        ``metrics`` so EXPLAIN ANALYZE can render the work already done.
        """
        if self._cancel_reason is not None:
            raise QueryCancelledError(
                f"query cancelled: {self._cancel_reason}", metrics=metrics
            )
        deadline = self.deadline
        if deadline is not None and deadline.expired:
            raise QueryTimeoutError(
                f"query exceeded its {deadline.timeout_sec:g}s deadline "
                f"(elapsed {deadline.elapsed_sec:.3f}s, "
                f"{deadline.charged_sec:.3f}s of it simulated waits)",
                metrics=metrics,
            )

    def on_retry_wait(self, metrics, seconds: float) -> None:
        """Charge a simulated retry backoff into the deadline, then poll.

        Called from the fault injector's retry loop: backoff seconds never
        elapse on the wall clock, but a production deadline counts them —
        charging them keeps timeout behaviour deterministic under a seeded
        fault plan.
        """
        if self.deadline is not None:
            self.deadline.charge(seconds)
        self.on_stage(metrics)

    # -- memory charging -------------------------------------------------------

    def charge_site(self, metrics, nbytes: int) -> None:
        """Charge a non-spillable wide site (explode/distinct/aggregate).

        A trip is recorded in ``governor.budget_trips`` and execution
        proceeds: these operators have no cheaper shape to degrade to, so
        the governor observes rather than aborts.
        """
        budget = self.budget
        if budget is None:
            return
        if budget.charge(nbytes):
            metrics.budget_trips += 1
        metrics.peak_memory_bytes = budget.peak_bytes

    def plan_join_build(self, metrics, nbytes: int, span=None) -> int:
        """Charge a hash-join build; return the grace-hash fanout (0 = fits).

        A tripped build returns the deterministic spill fanout and charges
        ``governor.spills`` / ``spill_partitions`` once per join.
        """
        budget = self.budget
        if budget is None:
            return 0
        tripped = budget.charge(nbytes)
        metrics.peak_memory_bytes = budget.peak_bytes
        if not tripped:
            return 0
        fanout = budget.spill_fanout(nbytes)
        metrics.spills += 1
        metrics.spill_partitions += fanout
        if span is not None:
            span.set("spill_partitions", fanout)
        return fanout

    def should_degrade_broadcast(self, metrics, build_bytes: int, span=None) -> bool:
        """Whether a broadcast build of ``build_bytes`` must fall back to a
        shuffle join; charges ``governor.degraded_joins`` when it does."""
        budget = self.budget
        if budget is None or not budget.would_trip(build_bytes):
            return False
        metrics.degraded_joins += 1
        if span is not None:
            span.set("degraded", "broadcast→shuffle (budget)")
        return True

    def apply_memory_pressure(self, metrics, fraction: float) -> int | None:
        """A memory-pressure fault: shrink the effective budget mid-query.

        Returns the new effective budget, or ``None`` when the query is
        unbudgeted (pressure on an unbudgeted query is a no-op).
        """
        if self.budget is None:
            return None
        metrics.memory_pressure_events += 1
        return self.budget.shrink(fraction)

    # -- spill-file lifecycle --------------------------------------------------

    def new_spill_store(self, metrics) -> SpillStore:
        """A fresh bucket directory for one grace-hash kernel invocation.

        Directories are numbered in execution order (``spill-0000``, …),
        which is deterministic per query plan, so reruns write the same
        relative paths with the same contents.
        """
        if self._query_spill_dir is None:
            root = self.spill_root or tempfile.gettempdir()
            os.makedirs(root, exist_ok=True)
            self._query_spill_dir = tempfile.mkdtemp(prefix="prost-spill-", dir=root)
        directory = os.path.join(self._query_spill_dir, f"spill-{self._spill_seq:04d}")
        self._spill_seq += 1
        os.makedirs(directory, exist_ok=True)
        store = SpillStore(directory, metrics)
        self.spill_stores.append(store)
        return store

    @property
    def spill_paths(self) -> list[str]:
        """Every spill file this query wrote (for lifecycle audits)."""
        paths: list[str] = []
        for store in self.spill_stores:
            paths.extend(store.paths)
        return paths

    def cleanup(self) -> None:
        """Remove the query's spill directory; safe to call repeatedly.

        Runs in the session's ``finally`` so success, timeout, and
        injected-fault abort all leave no orphaned temp files.
        """
        if self._query_spill_dir is not None:
            shutil.rmtree(self._query_spill_dir, ignore_errors=True)
            self._query_spill_dir = None

    def __repr__(self) -> str:
        return (
            f"GovernorContext(budget={self.budget!r}, deadline={self.deadline!r}, "
            f"spills={len(self.spill_stores)})"
        )
