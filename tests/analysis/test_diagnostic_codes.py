"""The diagnostic catalogue matches the code that emits and the document
that explains it: every key of :data:`repro.analysis.diagnostics.CODES` is
built as a ``Diagnostic("PVxxx", …)`` somewhere under ``repro.analysis``,
every code built there is a key, and DESIGN.md names every key."""

from __future__ import annotations

import ast
from pathlib import Path

import repro.analysis
from repro.analysis.diagnostics import CODES

ANALYSIS_DIR = Path(repro.analysis.__file__).parent
DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def emitted_codes() -> set[str]:
    """Every string literal passed as ``Diagnostic``'s code, by position or
    as ``code=``."""
    found: set[str] = set()
    for path in ANALYSIS_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Diagnostic"
            ):
                continue
            code = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "code"), None
            )
            assert isinstance(code, ast.Constant), (
                f"{path.name}:{node.lineno}: a Diagnostic code must be a literal"
            )
            found.add(code.value)
    return found


def test_every_catalogued_code_is_emitted_and_every_emitted_code_catalogued():
    assert emitted_codes() == set(CODES)


def test_design_names_every_code():
    design = DESIGN.read_text(encoding="utf-8")
    assert [code for code in CODES if f"`{code}`" not in design] == []
