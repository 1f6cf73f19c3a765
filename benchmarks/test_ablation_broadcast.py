"""Ablation — Catalyst's broadcast-join selection on vs off (paper §3.3).

The paper credits Spark SQL's optimizer with choosing broadcast joins "if one
of the relations involved is small". Setting the broadcast threshold to zero
forces every join through a full shuffle; total shuffle volume must rise
sharply and the query-set total must slow down.
"""

import dataclasses

from repro.core import ProstEngine
from repro.sparql.parser import parse_sparql


def test_ablation_broadcast_joins(suite, save_artifact):
    with_broadcast = suite.make_prost()
    with_broadcast.load(suite.dataset.graph)

    no_broadcast_config = dataclasses.replace(
        suite.cluster_config(), broadcast_threshold_bytes=0
    )
    without_broadcast = ProstEngine(cluster_config=no_broadcast_config)
    without_broadcast.load(suite.dataset.graph)

    def run_both():
        totals = []
        for engine in (with_broadcast, without_broadcast):
            simulated = 0.0
            shuffle_bytes = 0
            broadcasts = 0
            for query in suite.queries:
                result = engine.sparql(parse_sparql(query.text))
                simulated += result.report.simulated_sec
                metrics = result.report.engine_report.metrics
                shuffle_bytes += metrics.shuffle_bytes
                broadcasts += metrics.broadcast_count
            totals.append((simulated, shuffle_bytes, broadcasts))
        return totals

    (on_sec, on_shuffle, on_bcasts), (off_sec, off_shuffle, off_bcasts) = run_both()
    save_artifact(
        "ablation_broadcast",
        "Ablation: broadcast-join selection (20-query totals)\n"
        f"{'threshold':<14}{'simulated':>14}{'shuffle bytes':>16}{'broadcasts':>12}\n"
        f"{'10MB (Spark)':<14}{on_sec * 1000:>12,.0f}ms{on_shuffle:>16,}{on_bcasts:>12}\n"
        f"{'disabled':<14}{off_sec * 1000:>12,.0f}ms{off_shuffle:>16,}{off_bcasts:>12}",
    )

    # Cartesian products replicate their small side whatever the threshold,
    # so a handful of "broadcasts" remain even when hash-join broadcasting is
    # disabled; hash joins themselves must all have become shuffles.
    assert on_bcasts > off_bcasts, "the threshold must drive broadcast joins"
    assert off_shuffle > on_shuffle * 1.4, "disabling broadcast inflates shuffles"
    assert off_sec > on_sec, "broadcast joins pay off overall"
