"""Ablation — statistics-based join ordering on vs off (paper §3.3).

The paper sorts joins by loading-time statistics so selective sub-queries
compute first. Disabling the statistics keeps the grouping but assembles the
tree in query order; total work (shuffled bytes + processed rows) should not
improve, and on queries with selective literals it should get clearly worse.
"""

from repro.sparql.parser import parse_sparql


def _total_work(engine, queries) -> tuple[float, int]:
    simulated = 0.0
    shuffled = 0
    for query in queries:
        result = engine.sparql(parse_sparql(query.text))
        simulated += result.report.simulated_sec
        shuffled += result.report.engine_report.metrics.shuffle_bytes
    return simulated, shuffled


def test_ablation_statistics_ordering(suite, save_artifact):
    with_stats = suite.make_prost()
    with_stats.load(suite.dataset.graph)
    without_stats = suite.make_prost(use_statistics=False)
    without_stats.load(suite.dataset.graph)

    def run_both():
        return (
            _total_work(with_stats, suite.queries),
            _total_work(without_stats, suite.queries),
        )

    (stats_sec, stats_bytes), (nostats_sec, nostats_bytes) = run_both()
    save_artifact(
        "ablation_statistics",
        "Ablation: statistics-based join ordering (20-query totals)\n"
        f"{'ordering':<16}{'simulated total':>18}{'shuffle bytes':>16}\n"
        f"{'statistics':<16}{stats_sec * 1000:>16,.0f}ms{stats_bytes:>16,}\n"
        f"{'query order':<16}{nostats_sec * 1000:>16,.0f}ms{nostats_bytes:>16,}",
    )

    # Statistics-guided trees never do meaningfully more total work...
    assert stats_sec <= nostats_sec * 1.05
    # ... and both configurations stay correct (spot check one query).
    sample = parse_sparql(suite.queries[0].text)
    assert with_stats.sparql(sample).rows == without_stats.sparql(sample).rows
