"""Figure 2 — per-query time: Vertical Partitioning only vs mixed strategy.

Paper: "the introduction of the Property Table has a strong positive impact
on performances. For almost every type of query this version outperforms
abundantly the simple Vertical Partitioning approach" — strongly on Star,
Complex, and Snowflake queries; "for some of the Linear queries the results
are very similar between the two versions".
"""

from repro.bench import render_figure2
from repro.watdiv.queries import QUERY_GROUPS


def test_figure2_vp_vs_mixed(suite, save_artifact):
    runs = suite.run_strategy_comparison()
    save_artifact("figure2_vp_vs_mixed", render_figure2(runs))

    vp_only = runs["VP only"]
    mixed = runs["Mixed (VP + PT)"]
    vp_avg = vp_only.average_by_group()
    mixed_avg = mixed.average_by_group()

    # Mixed wins every group on average...
    for group in QUERY_GROUPS:
        assert mixed_avg[group] <= vp_avg[group] * 1.10, group
    # ... strongly on Complex/Snowflake/Star:
    assert mixed_avg["C"] < 0.6 * vp_avg["C"]
    assert mixed_avg["F"] < 0.8 * vp_avg["F"]
    assert mixed_avg["S"] < 0.8 * vp_avg["S"]
    # ... and Linear queries stay close (mostly VP in both versions).
    assert mixed_avg["L"] > 0.5 * vp_avg["L"]

    # Per-query: mixed never loses badly anywhere.
    for name, result in mixed.queries.items():
        assert result.simulated_sec <= 1.5 * vp_only.queries[name].simulated_sec, name
