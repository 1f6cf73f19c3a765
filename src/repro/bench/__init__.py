"""Benchmark harness: the paper's Tables 1-2 and Figures 2-3."""

from .harness import (
    EMULATED_TRIPLES,
    BenchmarkConfig,
    BenchmarkSuite,
    QueryResult,
    SystemRun,
)
from .reporting import (
    render_bar_chart,
    render_figure2,
    render_figure3,
    render_per_query_times,
    render_table1,
    render_table2,
    speedup_table,
)

__all__ = [
    "BenchmarkConfig",
    "BenchmarkSuite",
    "EMULATED_TRIPLES",
    "QueryResult",
    "SystemRun",
    "render_bar_chart",
    "render_figure2",
    "render_figure3",
    "render_per_query_times",
    "render_table1",
    "render_table2",
    "speedup_table",
]
