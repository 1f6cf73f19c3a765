"""The architectural lints: the shipped tree is clean, and a deliberately
broken fixture package trips every pass."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.lint import load_source_files, run_lints
from repro.analysis.lint.determinism import check_determinism
from repro.analysis.lint.errors import check_errors
from repro.analysis.lint.layering import check_layering
from repro.analysis.lint.metrics import check_metrics
from repro.analysis.lint.runner import render_report


def test_shipped_tree_is_clean():
    violations = run_lints()
    assert violations == [], render_report(violations)


@pytest.fixture()
def broken_package(tmp_path):
    """A small ``repro``-shaped package violating every contract once."""
    root = tmp_path / "repro"

    def module(relative, source):
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in path.relative_to(root).parents:
            init = root / parent / "__init__.py"
            if not init.exists():
                init.write_text("")
        path.write_text(textwrap.dedent(source))

    module("__init__.py", "")
    module(
        "errors.py",
        """
        class ReproError(Exception):
            pass

        class PlanError(ReproError):
            pass
        """,
    )
    module(
        "engine/bad_layering.py",
        """
        from repro.sparql import parser        # generic layer -> sparql
        from repro.obs.tracer import Tracer    # module-level obs import
        """,
    )
    module(
        "engine/bad_determinism.py",
        """
        import random
        import time

        def stamp(rows):
            started = time.time()              # wall clock in the data plane
            shuffled = random.shuffle(rows)    # ambient global randomness
            for row in set(rows):              # unordered iteration
                pass
            return started, shuffled
        """,
    )
    module(
        "serve/bad_environment.py",
        """
        import os
        from os import getenv                  # environment getter

        def settings():
            return os.environ.get("X"), os.getenv("Y"), getenv("Z")
        """,
    )
    module(
        "core/bad_metrics.py",
        """
        KNOWN = "engine.shuffle_bytes"         # inline literal, not constant
        UNKNOWN = "engine.bogus_counter"       # not in the registry at all
        """,
    )
    module(
        "core/bad_errors.py",
        """
        def fail():
            raise ValueError("not from the hierarchy")
        """,
    )
    return root


def rules(violations):
    return sorted({v.rule for v in violations})


def test_fixture_layering(broken_package):
    violations = check_layering(load_source_files(broken_package))
    assert rules(violations) == ["layering"]
    lines = {v.path for v in violations}
    assert lines == {"engine/bad_layering.py"}
    messages = " ".join(v.message for v in violations)
    assert "repro.sparql" in messages and "repro.obs" in messages


def test_fixture_determinism(broken_package):
    violations = check_determinism(load_source_files(broken_package))
    assert rules(violations) == ["determinism"]
    messages = " ".join(v.message for v in violations)
    assert "wall-clock" in messages
    assert "random.Random" in messages
    assert "bare set" in messages


def test_fixture_environment_reads(broken_package):
    """Environment reads are banned in every subpackage, not only the data
    plane: the fixture's offender lives in ``serve``."""
    violations = [
        v
        for v in check_determinism(load_source_files(broken_package))
        if v.path == "serve/bad_environment.py"
    ]
    assert sorted(v.line for v in violations) == [3, 6, 6]
    assert all("ambient configuration" in v.message for v in violations)


def test_fixture_metrics(broken_package):
    violations = check_metrics(load_source_files(broken_package))
    assert rules(violations) == ["metrics"]
    by_message = sorted(v.message for v in violations)
    assert any("inline counter literal" in m for m in by_message)
    assert any("not in the metrics registry" in m for m in by_message)


def test_fixture_errors(broken_package):
    violations = check_errors(load_source_files(broken_package))
    assert rules(violations) == ["errors"]
    (violation,) = violations
    assert violation.path == "core/bad_errors.py"
    assert "ValueError" in violation.message


def test_run_lints_on_fixture_counts_everything(broken_package):
    violations = run_lints(broken_package)
    assert rules(violations) == ["determinism", "errors", "layering", "metrics"]
    # Sorted by file and line for stable reports.
    assert violations == sorted(
        violations, key=lambda v: (v.path, v.line, v.rule)
    )


def test_allowed_patterns_stay_clean(tmp_path):
    """perf_counter, seeded Random in faults.py, lazy obs, hierarchy raises."""
    root = tmp_path / "repro"
    (root / "engine").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "errors.py").write_text("class ReproError(Exception):\n    pass\n")
    (root / "engine" / "__init__.py").write_text("")
    (root / "engine" / "good.py").write_text(
        textwrap.dedent(
            """
            import time

            def run(tracer=None):
                started = time.perf_counter()
                if tracer is not None:
                    from repro.obs.tracer import Tracer  # lazy: allowed
                try:
                    pass
                except Exception as error:
                    raise error
                return started
            """
        )
    )
    (root / "engine" / "faults.py").write_text(
        textwrap.dedent(
            """
            import random

            def plan(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
    )
    assert run_lints(root) == []
