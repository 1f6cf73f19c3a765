"""Configuration for the differential fuzzing tests.

The fixed-seed subset (``test_differential.py``) runs in tier-1 by default.
The extended run is opt-in: ``pytest --fuzz-iterations N tests/fuzz`` runs
N seeds from seed 0 (``prost-repro fuzz --seed S --iterations N`` runs any
other range).
"""

from __future__ import annotations

import pytest


@pytest.fixture
def extended_fuzz_iterations(request) -> int:
    """Seed count of the opt-in extended run, or skip."""
    iterations = request.config.getoption("--fuzz-iterations")
    if not iterations or iterations <= 0:
        pytest.skip("extended fuzzing is opt-in: pass --fuzz-iterations N")
    return iterations
