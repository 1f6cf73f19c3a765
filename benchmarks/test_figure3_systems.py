"""Figure 3 — per-query time: PRoST vs S2RDF vs Rya vs SPARQLGX (log scale).

Paper shape: PRoST beats SPARQLGX on every query, mostly by around an order
of magnitude; Rya is very fast on a few highly selective queries but orders
of magnitude slower on join-heavy ones (especially Complex); S2RDF and PRoST
are in the same band, S2RDF ahead on the Complex queries, PRoST ahead on
several Star/Snowflake queries (paper: F2, S1, S3, S5).
"""

from repro.bench import render_figure3, speedup_table


def test_figure3_systems(system_runs, save_artifact):
    runs = system_runs
    save_artifact("figure3_systems", render_figure3(runs))

    prost = runs["PRoST"]
    rya = runs["Rya"]

    # PRoST beats SPARQLGX on every query.
    versus_gx = speedup_table(runs, "PRoST", "SPARQLGX")
    assert all(ratio > 1.0 for ratio in versus_gx.values()), versus_gx
    # ... by a large factor on most (median speedup well above 2x).
    assert sorted(versus_gx.values())[len(versus_gx) // 2] > 2.5

    # Rya collapses on the join-heavy Complex queries: orders of magnitude.
    for name in ("C1", "C2", "C3"):
        assert rya.queries[name].simulated_sec > 50 * prost.queries[name].simulated_sec

    # Rya's *best* query is much closer to the engines (its selective-query
    # strength), within ~2 orders of magnitude of PRoST.
    best_ratio = min(
        rya.queries[name].simulated_sec / prost.queries[name].simulated_sec
        for name in rya.queries
    )
    assert best_ratio < 100

    # PRoST and S2RDF live in the same band: within ~4x of each other on
    # average, with each winning some queries.
    versus_s2 = speedup_table(runs, "PRoST", "S2RDF")
    assert any(ratio > 1.0 for ratio in versus_s2.values())
    assert any(ratio < 1.0 for ratio in versus_s2.values())
    average = sum(versus_s2.values()) / len(versus_s2)
    assert 0.25 < average < 4.0
