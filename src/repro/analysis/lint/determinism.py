"""Determinism lint, over every module of the package.

The simulated cluster must be bit-for-bit reproducible: the differential
fuzz harness and the seeded fault injector both rely on a query producing
the same result (and the same simulated cost) on every run. So no module
draws wall-clock time, ambient randomness or ambient configuration:

- ``time.time``/``time.time_ns`` are banned (``time.perf_counter`` is fine:
  it only feeds *reported* wall-clock durations, never control flow);
- module-level ``random.*`` functions, ``os.urandom`` and ``uuid.uuid1/4``
  are banned; explicitly seeded ``random.Random(seed)`` instances are the
  one sanctioned source of randomness (``engine/faults.py``, the seeded
  chaos injector, and the test-data generators under ``testing``/``watdiv``
  hold one);
- reading the process environment through :mod:`os` is banned: every
  setting is a ``ClusterConfig`` field, a constructor argument or a CLI
  flag, never a second spelling read from the environment;
- iterating a bare ``set(...)``/set literal in a ``for`` loop is banned —
  Python set order varies across processes (hash randomization), which
  leaks into row order; iterate ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast

from .base import LintViolation, SourceFile

RULE = "determinism"

#: Modules allowed to hold a seeded ``random.Random`` (relative names).
SEEDED_RANDOM_ALLOWED = ("engine/faults.py",)

_BANNED_CALLS = {
    ("time", "time"): "wall-clock time",
    ("time", "time_ns"): "wall-clock time",
    ("os", "urandom"): "OS entropy",
    ("uuid", "uuid1"): "time/host-derived UUIDs",
    ("uuid", "uuid4"): "random UUIDs",
    ("os", "environ"): "ambient configuration",
    ("os", "getenv"): "ambient configuration",
}


def check_determinism(sources: list[SourceFile]) -> list[LintViolation]:
    """All determinism violations across the parsed package."""
    violations: list[LintViolation] = []
    for source in sources:
        violations.extend(_check_module(source))
    return violations


def _check_module(source: SourceFile) -> list[LintViolation]:
    found: list[LintViolation] = []
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.extend(_check_attribute(source, node))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.extend(_check_from_import(source, node))
        elif isinstance(node, (ast.For, ast.comprehension)):
            found.extend(_check_iteration(source, node))
    return found


def _check_attribute(
    source: SourceFile, node: ast.Attribute
) -> list[LintViolation]:
    assert isinstance(node.value, ast.Name)
    key = (node.value.id, node.attr)
    if key in _BANNED_CALLS:
        return [
            LintViolation(
                RULE,
                source.relative_name,
                node.lineno,
                f"{key[0]}.{key[1]} draws {_BANNED_CALLS[key]}; the package "
                "must stay deterministic",
            )
        ]
    if key[0] == "random" and key[1] != "Random":
        allowed = source.relative_name in SEEDED_RANDOM_ALLOWED
        if not allowed:
            return [
                LintViolation(
                    RULE,
                    source.relative_name,
                    node.lineno,
                    f"module-level random.{key[1]} uses ambient global state; "
                    "use an explicitly seeded random.Random instance",
                )
            ]
    return []


def _check_from_import(
    source: SourceFile, node: ast.ImportFrom
) -> list[LintViolation]:
    found: list[LintViolation] = []
    for alias in node.names:
        key = (node.module or "", alias.name)
        if key in _BANNED_CALLS:
            found.append(
                LintViolation(
                    RULE,
                    source.relative_name,
                    node.lineno,
                    f"importing {key[1]} from {key[0]} draws "
                    f"{_BANNED_CALLS[key]}; the package must stay "
                    "deterministic",
                )
            )
        if key[0] == "random" and key[1] != "Random":
            found.append(
                LintViolation(
                    RULE,
                    source.relative_name,
                    node.lineno,
                    f"importing {alias.name} from random uses ambient global "
                    "state; use an explicitly seeded random.Random instance",
                )
            )
    return found


def _check_iteration(
    source: SourceFile, node: ast.For | ast.comprehension
) -> list[LintViolation]:
    iterated = node.iter
    is_bare_set = isinstance(iterated, ast.Set) or (
        isinstance(iterated, ast.Call)
        and isinstance(iterated.func, ast.Name)
        and iterated.func.id in ("set", "frozenset")
    )
    if not is_bare_set:
        return []
    line = node.iter.lineno
    return [
        LintViolation(
            RULE,
            source.relative_name,
            line,
            "iterating a bare set: order varies under hash randomization; "
            "wrap it in sorted(...)",
        )
    ]
