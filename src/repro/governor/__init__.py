"""Resource governance: memory budgets, deadlines, and admission control.

The layer that turns ``ClusterConfig.broadcast_threshold_bytes`` — the one
resource guardrail the paper's Spark deployment exposes — into a full
governance story. Four pieces:

- :class:`~repro.governor.budget.MemoryBudget` — per-query byte budget
  charged at every memory-hungry operator site; tripping it walks the
  degradation ladder (broadcast→shuffle, in-memory hash join→grace-hash
  spill) instead of failing;
- :class:`~repro.governor.deadline.Deadline` — cooperative per-query
  deadline polled at stage boundaries and inside the fault injector's
  retry loop;
- :class:`~repro.governor.context.GovernorContext` — the per-query object
  carrying both, attached to ``ExecutionMetrics`` exactly like the fault
  injector so the executor needs no new plumbing;
- :class:`~repro.governor.admission.Governor` — the engine front door:
  concurrent-query slots, aggregate-memory reservations, bounded queueing
  and load-shedding.

Configuration comes from the validated ``ClusterConfig`` fields
(``memory_budget_bytes``, ``query_timeout_sec``, ``max_concurrent_queries``,
``spill_dir``), with the ``REPRO_MEM_BUDGET`` / ``REPRO_QUERY_TIMEOUT``
environment variables as fallbacks — the hook CI uses to re-run the whole
fuzz corpus with every query forced through the spill path.
"""

from __future__ import annotations

import os

from ..errors import ValidationError
from .admission import Governor
from .budget import MAX_SPILL_FANOUT, MIN_SPILL_FANOUT, MemoryBudget
from .context import GovernorContext
from .deadline import Deadline
from .spill import SpillStore, grace_hash_join

#: Environment fallback for ``ClusterConfig.memory_budget_bytes``.
MEM_BUDGET_ENV = "REPRO_MEM_BUDGET"

#: Environment fallback for ``ClusterConfig.query_timeout_sec``.
QUERY_TIMEOUT_ENV = "REPRO_QUERY_TIMEOUT"

__all__ = [
    "Deadline",
    "Governor",
    "GovernorContext",
    "MAX_SPILL_FANOUT",
    "MEM_BUDGET_ENV",
    "MIN_SPILL_FANOUT",
    "MemoryBudget",
    "QUERY_TIMEOUT_ENV",
    "SpillStore",
    "grace_hash_join",
    "governor_context_for",
    "memory_budget_from_env",
    "query_timeout_from_env",
]


def memory_budget_from_env() -> int | None:
    """``REPRO_MEM_BUDGET`` as bytes, or ``None`` when unset/empty."""
    raw = os.environ.get(MEM_BUDGET_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(
            f"{MEM_BUDGET_ENV} must be an integer byte count, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValidationError(f"{MEM_BUDGET_ENV} must be positive, got {raw!r}")
    return value


def query_timeout_from_env() -> float | None:
    """``REPRO_QUERY_TIMEOUT`` as seconds, or ``None`` when unset/empty."""
    raw = os.environ.get(QUERY_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(
            f"{QUERY_TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    if value <= 0:
        raise ValidationError(f"{QUERY_TIMEOUT_ENV} must be positive, got {raw!r}")
    return value


def governor_context_for(config) -> GovernorContext | None:
    """The per-query :class:`GovernorContext` a ``ClusterConfig`` implies.

    Explicit config fields win; the environment variables fill in when a
    field is unset (so an exported ``REPRO_MEM_BUDGET`` governs every
    engine in the process, which is how the CI spill leg works). Returns
    ``None`` when neither a budget nor a timeout is in force — governance
    off means literally no per-query state.
    """
    budget = config.memory_budget_bytes
    if budget is None:
        budget = memory_budget_from_env()
    timeout = config.query_timeout_sec
    if timeout is None:
        timeout = query_timeout_from_env()
    if budget is None and timeout is None:
        return None
    return GovernorContext(
        budget_bytes=budget, timeout_sec=timeout, spill_root=config.spill_dir
    )
