"""The counter-name constants and the registry cannot drift apart."""

from __future__ import annotations

from repro.analysis.lint.metrics import COUNTER_PATTERN
from repro.obs import metrics


def test_every_exported_constant_is_registered():
    constants = {
        name: value
        for name, value in vars(metrics).items()
        if name.isupper()
        and isinstance(value, str)
        and COUNTER_PATTERN.match(value)
    }
    assert constants  # the module exports counter-name constants
    for name, value in constants.items():
        assert value in metrics.REGISTRY, f"{name} = {value!r} is unregistered"


def test_every_registered_name_matches_the_lint_pattern():
    """The lint's regex recognizes the whole registry — a counter named
    outside the pattern would silently escape the metrics lint."""
    for spec in metrics.REGISTRY:
        assert COUNTER_PATTERN.match(spec.name), spec.name


def test_snapshot_keys_are_registered():
    class FakeMetrics:
        def __getattr__(self, name):
            return 0

    for key in metrics.snapshot_execution_metrics(FakeMetrics()):
        assert key in metrics.REGISTRY
    for key in metrics.snapshot_cost(FakeMetrics()):
        assert key in metrics.REGISTRY
    for key in metrics.snapshot_server_stats(FakeMetrics()):
        assert key in metrics.REGISTRY
