"""Table 2 — average querying time per query-shape class.

Paper (ms): Complex 9364 / 3392 / 2195322 / 61363, Snowflake 5923 / 1564 /
369016 / 24046, Linear 2419 / 527 / 49044 / 18254, Star 1195 / 884 / 69606 /
21046 for PRoST / S2RDF / Rya / SPARQLGX. The reproduced shape: Rya is the
worst average in every class (catastrophically on Complex); PRoST beats
SPARQLGX in every class; PRoST and S2RDF are the two fastest throughout.
"""

from repro.bench import render_table2
from repro.watdiv.queries import QUERY_GROUPS


def test_table2_averages(system_runs, save_artifact):
    runs = system_runs
    save_artifact("table2_averages", render_table2(runs))

    averages = {name: run.average_by_group() for name, run in runs.items()}

    for group in QUERY_GROUPS:
        per_system = {name: averages[name][group] for name in runs}
        # Rya is the worst average in every class.
        assert per_system["Rya"] == max(per_system.values()), group
        # PRoST beats SPARQLGX in every class.
        assert per_system["PRoST"] < per_system["SPARQLGX"], group

    # Complex queries are Rya's disaster class: ≥2 orders of magnitude.
    assert averages["Rya"]["C"] > 100 * averages["PRoST"]["C"]

    # Class ordering within PRoST matches the paper:
    # Complex > Snowflake > Linear ≳ Star.
    prost = averages["PRoST"]
    assert prost["C"] > prost["F"] > prost["L"]
    assert prost["S"] <= prost["F"]
