"""The configuration contract: completeness and docs sync.

``repro.obs.configdoc`` is the single source of truth for the knob surface.
These tests pin it from two directions: every ``ClusterConfig`` field must
carry a curated description (and none may be stale), and
``docs/CONFIGURATION.md`` must be byte-identical to ``configdoc.markdown()``
(no drift between code and docs). That the package reads no environment
variables is the determinism lint's job (``tests/analysis/test_lint.py``).
"""

import dataclasses
import pathlib
import subprocess
import sys

from repro.engine.cluster import ClusterConfig
from repro.obs import configdoc

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

REGENERATE = "`prost-repro config --markdown > docs/CONFIGURATION.md`"


class TestCompleteness:
    def test_every_cluster_config_field_has_a_row(self):
        rows = {row.name for row in configdoc.config_rows()}
        declared = {f.name for f in dataclasses.fields(ClusterConfig)}
        assert rows == declared

    def test_rows_carry_defaults_rules_and_descriptions(self):
        for row in configdoc.config_rows():
            assert row.default, f"{row.name} lacks a default rendering"
            assert row.rule, f"{row.name} lacks a validation rule"
            assert row.description.strip(), f"{row.name} lacks a description"


class TestDocsSync:
    def test_configuration_md_matches_generator_byte_for_byte(self):
        path = REPO_ROOT / "docs" / "CONFIGURATION.md"
        assert path.exists(), (
            f"docs/CONFIGURATION.md missing; regenerate with {REGENERATE}"
        )
        assert path.read_text(encoding="utf-8") == configdoc.markdown(), (
            f"docs/CONFIGURATION.md drifted from the code; regenerate with "
            f"{REGENERATE}"
        )

    def test_cli_markdown_output_is_byte_identical(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "config", "--markdown"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == configdoc.markdown()
