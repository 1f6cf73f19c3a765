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

Configuration comes only from the validated ``ClusterConfig`` fields
(``memory_budget_bytes``, ``query_timeout_sec``, ``max_concurrent_queries``,
``spill_dir``); the CLI's ``--memory-budget`` / ``--timeout`` flags set the
first two.
"""

from __future__ import annotations

from .admission import Governor, YieldingLock
from .budget import MAX_SPILL_FANOUT, MIN_SPILL_FANOUT, MemoryBudget
from .context import GovernorContext
from .deadline import Deadline
from .spill import SpillStore, grace_hash_join

__all__ = [
    "Deadline",
    "Governor",
    "GovernorContext",
    "MAX_SPILL_FANOUT",
    "MIN_SPILL_FANOUT",
    "MemoryBudget",
    "SpillStore",
    "YieldingLock",
    "grace_hash_join",
    "governor_context_for",
]


def governor_context_for(config) -> GovernorContext | None:
    """The per-query :class:`GovernorContext` a ``ClusterConfig`` implies.

    Returns ``None`` when the config sets neither a budget nor a timeout —
    governance off means literally no per-query state.
    """
    budget = config.memory_budget_bytes
    timeout = config.query_timeout_sec
    if budget is None and timeout is None:
        return None
    return GovernorContext(
        budget_bytes=budget, timeout_sec=timeout, spill_root=config.spill_dir
    )
