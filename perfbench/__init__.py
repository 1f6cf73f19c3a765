"""perfbench: the repository's benchmark (see ``BENCHMARK.json`` and README.md).

Four closed-loop workloads time the engine from outside, through its public
functions only; nothing under ``src/`` knows this package exists. Run one
workload with ``python3 -m perfbench run --workload <name> --seed <n>``.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root: the directory holding ``BENCHMARK.json`` and ``src/``.
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Everything a run writes (dataset files, traces, raw samples) goes here.
OUT_DIR = Path(__file__).resolve().parent / "out"


def ensure_repro() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the program beside it, never an installed copy;
    a checkout without ``src/repro`` is an error, not a fallback.
    """
    source = REPO_ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure at {source / 'repro'}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
