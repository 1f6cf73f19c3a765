"""Concurrency-safety static analysis over the serving data plane.

The serving layer (:mod:`repro.serve`), the governor, and the engine's
prepared-statement caches are hit from many threads at once — the
``serve_mixed`` workload of ``python3 -m perfbench run`` alone drives a
:class:`~repro.serve.QueryServer` from two closed-loop client threads.
This package proves, before any of that traffic runs, that every piece of
shared mutable state is accessed under its declared lock:

- :mod:`~repro.analysis.concurrency.model` — extracts each class's
  locking discipline from lightweight ``# guarded-by`` /
  ``# requires-lock`` / ``# unguarded-ok`` comment annotations plus its
  ``threading`` lock attributes;
- :mod:`~repro.analysis.concurrency.checker` — the lexical lockset
  checker emitting ``CC101``–``CC105`` (unguarded access, bad guard
  declaration, lock-order inversion, escaping guarded container,
  blocking call under lock), plus an inference pass that flags
  undeclared shared mutable state.

The checker runs as a pass of ``prost-repro lint`` (and the tier-1 lint
tests); its dynamic counterpart is :mod:`repro.testing.interleave`, which
replays seeded thread interleavings over the same code paths.
"""

from __future__ import annotations

from .checker import (
    BLOCKING_CALLS,
    ConcurrencyViolation,
    check_concurrency,
    check_concurrency_sources,
    check_module,
)
from .model import ClassModel, GuardDeclaration, build_class_model

__all__ = [
    "BLOCKING_CALLS",
    "ClassModel",
    "ConcurrencyViolation",
    "GuardDeclaration",
    "build_class_model",
    "check_concurrency",
    "check_concurrency_sources",
    "check_module",
]
