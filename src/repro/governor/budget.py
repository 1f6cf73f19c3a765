"""Per-query memory accounting against a fixed byte budget.

The budget models the executor-memory ceiling of one Spark task slot: the
paper's cluster ran 21 GB executors, and a join whose hash build outgrows
that ceiling either spills (Spark's ``ShuffledHashJoin`` falling back to
sort-merge with external sort) or dies with an OOM. Here the executor
charges every memory-hungry site — hash-join build, explode, distinct,
aggregate — against a :class:`MemoryBudget`, and a charge that
exceeds the *effective* budget triggers the degradation ladder instead of
an error (see :mod:`repro.governor.context`).

Sizing reuses the engine's shuffle accounting (``batch_bytes``), so a
degradation decision reads the same bytes the cost model prices.
"""

from __future__ import annotations

from ..errors import ValidationError

#: Bounds on the grace-hash fanout: at least a real split, at most the
#: file-handle-friendly cap Spark uses for its own shuffle spills.
MIN_SPILL_FANOUT = 2
MAX_SPILL_FANOUT = 64


class MemoryBudget:
    """A per-query byte budget with a high-water mark and pressure shrink.

    Attributes:
        limit_bytes: the configured budget.
        shrunk_bytes: bytes removed by memory-pressure faults; the
            *effective* budget is ``limit_bytes - shrunk_bytes`` (floored
            at one byte so decisions stay well-defined under heavy
            pressure).
        peak_bytes: largest single charge seen — the query's high-water
            mark, surfaced as ``governor.peak_memory_bytes``.
    """

    __slots__ = ("limit_bytes", "shrunk_bytes", "peak_bytes")

    def __init__(self, limit_bytes: int):
        if limit_bytes <= 0:
            raise ValidationError("memory budget must be positive")
        self.limit_bytes = int(limit_bytes)
        self.shrunk_bytes = 0
        self.peak_bytes = 0

    @property
    def effective_bytes(self) -> int:
        """The budget currently in force (post memory-pressure shrinks)."""
        return max(1, self.limit_bytes - self.shrunk_bytes)

    def shrink(self, fraction: float) -> int:
        """Apply memory pressure: remove ``fraction`` of the *configured*
        budget, returning the new effective budget. Idempotent at the
        one-byte floor."""
        removed = int(self.limit_bytes * fraction)
        self.shrunk_bytes = min(self.limit_bytes - 1, self.shrunk_bytes + removed)
        return self.effective_bytes

    def charge(self, nbytes: int) -> bool:
        """Charge one operator's working set; True when it trips the budget.

        Charges are per-site, not cumulative: operator state is transient
        (a build table is dropped once its join finishes), so each site is
        compared against the effective budget on its own. The high-water
        mark keeps the largest charge for observability.
        """
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes
        return nbytes > self.effective_bytes

    def would_trip(self, nbytes: int) -> bool:
        """Like :meth:`charge` but without touching the high-water mark."""
        return nbytes > self.effective_bytes

    def spill_fanout(self, nbytes: int) -> int:
        """Grace-hash partition count for a build side of ``nbytes``.

        Rounds ``nbytes / effective_budget`` up to the next power of two so
        every sub-partition's build is expected to fit, clamped to
        [:data:`MIN_SPILL_FANOUT`, :data:`MAX_SPILL_FANOUT`]. Purely a
        function of the charge and the effective budget — deterministic.
        """
        needed = -(-nbytes // self.effective_bytes)  # ceil division
        fanout = MIN_SPILL_FANOUT
        while fanout < needed and fanout < MAX_SPILL_FANOUT:
            fanout *= 2
        return fanout

    def __repr__(self) -> str:
        return (
            f"MemoryBudget(limit={self.limit_bytes}, "
            f"effective={self.effective_bytes}, peak={self.peak_bytes})"
        )
