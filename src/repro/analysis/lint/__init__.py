"""Architectural lints: AST passes over the ``repro`` source tree.

Each pass enforces one contract the codebase states in prose elsewhere:

- :mod:`~repro.analysis.lint.layering` — the data plane (``engine``,
  ``columnar``, ``hdfs``) never imports ``baselines``/``sparql``/``obs``,
  and ``obs`` stays optional (module-level imports only inside ``obs``).
- :mod:`~repro.analysis.lint.determinism` — no module draws wall-clock
  time, unseeded randomness or the process environment, or iterates a
  bare set.
- :mod:`~repro.analysis.lint.metrics` — counter names appear as string
  literals only in :mod:`repro.obs.metrics`, the registry's home.
- :mod:`~repro.analysis.lint.errors` — every ``raise`` uses the
  :mod:`repro.errors` hierarchy.

Run all of them with :func:`~repro.analysis.lint.runner.run_lints`
(``prost-repro lint`` on the command line); tier-1 tests assert the shipped
tree is clean.
"""

from __future__ import annotations

from .base import LintViolation, SourceFile, load_source_files
from .runner import run_lints

__all__ = [
    "LintViolation",
    "SourceFile",
    "load_source_files",
    "run_lints",
]
