"""Type-check the strictly-typed packages with the pinned pyproject config.

Skipped when mypy is not installed (the base image ships without it); the
CI "types" job installs the pinned version and runs this for real."""

from __future__ import annotations

from pathlib import Path

import pytest

mypy_api = pytest.importorskip("mypy.api")

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_strict_packages_type_check():
    stdout, stderr, status = mypy_api.run(
        [
            "--config-file",
            str(REPO_ROOT / "pyproject.toml"),
            "-p",
            "repro.analysis",
            "-p",
            "repro.obs",
            "-m",
            "repro.core.estimate",
        ]
    )
    assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"
