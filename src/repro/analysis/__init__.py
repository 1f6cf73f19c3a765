"""Static analysis: plan verification and architectural lints.

Two layers, both free of third-party dependencies:

- **Plan verifier** (:mod:`repro.analysis.verifier`) — schema and
  partitioning inference over Join Trees and engine logical plans, plus a
  checker that rejects plans violating the paper's invariants before they
  run: unbound variable references, PT nodes grouping patterns that do not
  share a subject, priorities inconsistent with the loading-time statistics,
  join keys typed differently on the two sides, and shuffle hints that
  discard co-partitioning on the join key. The
  :class:`~repro.core.prost.ProstEngine` runs it before every query it
  plans (there is no opt-out); ``prost-repro check`` runs it standalone
  with EXPLAIN-style diagnostics.
- **Repo lints** (:mod:`repro.analysis.lint`) — AST passes enforcing the
  codebase's own contracts: import layering, data-plane determinism, the
  metrics registry, and the error hierarchy. Exposed as ``prost-repro
  lint`` and as tier-1 pytest checks.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, render_diagnostics
from .lineage import verify_cached_plan
from .verifier import (
    check_query,
    verify_join_tree,
    verify_logical_plan,
    verify_query,
)

__all__ = [
    "Diagnostic",
    "check_query",
    "render_diagnostics",
    "verify_cached_plan",
    "verify_join_tree",
    "verify_logical_plan",
    "verify_query",
]

