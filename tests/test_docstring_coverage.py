"""Docstring-coverage lint for the observability, engine, governance,
serving, vectorized-execution, and static-analysis public API.

A hand-rolled ``ast`` walk (no third-party lint dependencies): every module
under ``src/repro/obs/``, ``src/repro/engine/``, ``src/repro/governor/``,
``src/repro/serve/``, ``src/repro/vector/``, and ``src/repro/analysis/``
(subpackages included) must carry a module docstring, and every *public*
definition — module-level classes and functions, and the public methods of
public classes — must be documented.
Private names (leading underscore), dunders other than ``__init__``-bearing
dataclasses, and nested helpers are exempt.
"""

import ast
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
LINTED_PACKAGES = (
    "src/repro/obs",
    "src/repro/engine",
    "src/repro/governor",
    "src/repro/serve",
    "src/repro/vector",
    "src/repro/analysis",
    "src/repro/baselines",
)


def _linted_files():
    files = []
    for package in LINTED_PACKAGES:
        # rglob: repro.analysis has nested subpackages (lint/, concurrency/)
        # whose public surface is just as load-bearing as the top level.
        files.extend(sorted((REPO_ROOT / package).rglob("*.py")))
    assert files, "lint target packages missing"
    return files


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _documented_methods(classes: dict, class_node: ast.ClassDef) -> set[str]:
    """Method names documented on the class or any same-module ancestor."""
    documented = set()
    stack = [class_node]
    seen = set()
    while stack:
        node = stack.pop()
        if node.name in seen:
            continue
        seen.add(node.name)
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if ast.get_docstring(member) is not None:
                    documented.add(member.name)
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id in classes:
                stack.append(classes[base.id])
    return documented


def _missing_docstrings(tree: ast.Module) -> list[str]:
    """Names of public definitions in one module that lack a docstring.

    An override counts as documented when a same-module base class documents
    a method of the same name — interface docs live on the base, not on
    every ``schema``/``children``/``describe`` override.
    """
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append("<module>")
    classes = {
        node.name: node for node in tree.body if isinstance(node, ast.ClassDef)
    }
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_public(node.name) and ast.get_docstring(node) is None:
                missing.append(node.name)
        elif isinstance(node, ast.ClassDef) and _is_public(node.name):
            if ast.get_docstring(node) is None:
                missing.append(node.name)
            inherited = _documented_methods(classes, node)
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not _is_public(member.name):
                    continue
                if member.name in inherited:
                    continue
                if ast.get_docstring(member) is None:
                    missing.append(f"{node.name}.{member.name}")
    return missing


@pytest.mark.parametrize(
    "path", _linted_files(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_public_api_is_documented(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = _missing_docstrings(tree)
    assert not missing, (
        f"{path.relative_to(REPO_ROOT)}: public definitions without "
        f"docstrings: {', '.join(missing)}"
    )


def test_lint_actually_detects_missing_docstrings():
    # Guard the linter itself: an undocumented public surface must trip it.
    tree = ast.parse(
        "class Thing:\n"
        '    """doc"""\n'
        "    def method(self):\n"
        "        pass\n"
    )
    assert _missing_docstrings(tree) == ["<module>", "Thing.method"]
