"""Observability: span tracing, the metrics contract, and EXPLAIN ANALYZE.

Three pieces, all zero-dependency:

- :mod:`~repro.obs.tracer` — nestable :class:`Tracer`/:class:`Span` context
  managers recording wall-clock timings and counter deltas, serializable to
  JSON; threaded through loader → translator → optimizer → physical
  executor so every traced query yields a span tree aligned with its
  physical plan;
- :mod:`~repro.obs.metrics` — the :class:`MetricsRegistry` naming and
  documenting every counter the engine, fault-injection, governor, and
  serving layers emit (``docs/METRICS.md`` is generated from it);
- :mod:`~repro.obs.explain` — the ASCII Join-Tree renderer behind
  ``EXPLAIN`` / ``EXPLAIN ANALYZE`` (estimated vs actual rows, chosen join
  strategies, shuffle/broadcast bytes, recovery charges).

:mod:`~repro.obs.configdoc` is the sibling contract for configuration:
``docs/CONFIGURATION.md`` is generated from it the same way.
"""

from .explain import (
    JoinEdge,
    NodeRuntime,
    align_spans,
    render_join_tree,
    render_span_tree,
)
from .metrics import (
    REGISTRY,
    CounterSpec,
    MetricsRegistry,
    snapshot_cost,
    snapshot_execution_metrics,
    snapshot_server_stats,
)
from .tracer import Span, Tracer

__all__ = [
    "REGISTRY",
    "CounterSpec",
    "JoinEdge",
    "MetricsRegistry",
    "NodeRuntime",
    "Span",
    "Tracer",
    "align_spans",
    "render_join_tree",
    "render_span_tree",
    "snapshot_cost",
    "snapshot_execution_metrics",
    "snapshot_server_stats",
]
