"""Golden-file snapshots of the EXPLAIN renderer plus ANALYZE invariants.

The golden files pin the exact ASCII output of ``ProstEngine.explain`` on
three WatDiv query shapes — PT-only (one star), VP-only (a linear path),
and mixed (star joined to a one-pattern hop) — so any change to the
renderer, the translator's node grouping, or the priority arithmetic shows
up as a readable diff. Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/obs/test_explain_golden.py --update-goldens

The ANALYZE assertions avoid byte counts on purpose (cell widths depend on
the term-ID dictionary state) and pin structure instead: actual row
annotations, executed join strategies, and the alignment with the engine
trace.
"""

import pathlib

import pytest

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: name -> (query, substrings every ANALYZE render must contain)
QUERIES = {
    "pt_only": (
        """SELECT ?v ?a ?b WHERE {
  ?v wsdbm:likes ?a .
  ?v wsdbm:follows ?b .
}""",
        ["PT[2 patterns]", "act="],
    ),
    "vp_only": (
        """SELECT ?a ?b ?c WHERE {
  ?a wsdbm:follows ?b .
  ?b wsdbm:likes ?c .
}""",
        ["VP", "join on ['b']", "act="],
    ),
    "mixed": (
        """SELECT ?v ?name ?u WHERE {
  ?v sorg:caption ?name .
  ?v rev:hasReview ?r .
  ?r rev:reviewer ?u .
}""",
        ["VP", "PT[2 patterns]", "join on ['r']", "act="],
    ),
}


class TestGoldenSnapshots:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_explain_matches_golden(self, prost_watdiv, pytestconfig, name):
        query, _ = QUERIES[name]
        rendered = prost_watdiv.explain(query) + "\n"
        path = GOLDEN_DIR / f"{name}.txt"
        if pytestconfig.getoption("--update-goldens"):
            path.write_text(rendered, encoding="utf-8")
        expected = path.read_text(encoding="utf-8")
        assert rendered == expected, (
            f"EXPLAIN output for {name} drifted from {path}; if intentional, "
            "regenerate with --update-goldens"
        )

    def test_goldens_cover_both_node_kinds(self):
        pt = (GOLDEN_DIR / "pt_only.txt").read_text()
        vp = (GOLDEN_DIR / "vp_only.txt").read_text()
        mixed = (GOLDEN_DIR / "mixed.txt").read_text()
        assert "PT[" in pt and "VP" not in pt.split("== Engine Plan ==")[0]
        assert "VP" in vp
        assert "PT[" in mixed and "VP" in mixed


class TestExplainAnalyze:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_analyze_annotates_actuals(self, prost_watdiv, name):
        query, expected_bits = QUERIES[name]
        rendered = prost_watdiv.explain(query, analyze=True)
        for bit in expected_bits:
            assert bit in rendered, f"{name}: missing {bit!r} in:\n{rendered}"
        # The analyze render resolves every estimated-only join strategy.
        assert "(est)" not in rendered

    def test_analyze_actual_rows_match_execution(self, prost_watdiv):
        query, _ = QUERIES["mixed"]
        rendered = prost_watdiv.explain(query, analyze=True)
        result = prost_watdiv.sparql(query)
        # The root of the join tree carries the pre-projection row count of
        # the final join, which for this plain BGP equals the result rows.
        join_out = [
            line for line in rendered.splitlines() if "out=" in line
        ]
        assert join_out, rendered
        out_rows = int(join_out[0].split("out=")[1].split()[0])
        assert out_rows == len(result.rows)

    def test_vp_strategy_renders_no_pt_nodes(self, prost_watdiv_vp):
        query, _ = QUERIES["pt_only"]
        rendered = prost_watdiv_vp.explain(query, analyze=True)
        tree = rendered.split("== Engine Plan ==")[0]
        assert "PT[" not in tree
        assert "VP" in tree

    def test_analyze_under_faults_annotates_recovery(self, prost_watdiv, monkeypatch):
        """A seeded fault plan shows up where it struck — tree node, join
        edge, engine-plan spans — with the injected counts, rows unchanged."""
        from repro.engine import FaultPlan, TaskFault, WorkerLoss

        query, _ = QUERIES["mixed"]
        clean_rows = prost_watdiv.sparql(query).rows
        # Stages: 0 scan(vp_reviewer), 1 project, 2 scan(property_table),
        # 3 filter, 4 project, 5 explode, 6 project, 7 the join.
        plan = FaultPlan(
            task_faults=(
                TaskFault(stage=0, task=0, failures=2),
                TaskFault(stage=2, task=1, failures=1, kind="fetch"),
                TaskFault(stage=7, task=0, failures=1),
            ),
            worker_losses=(WorkerLoss(stage=1, worker=2),),
        )
        monkeypatch.setattr(prost_watdiv.session.cluster, "fault_plan", plan)
        rendered = prost_watdiv.explain(query, analyze=True)
        tree, engine_plan = rendered.split("== Engine Plan ==")

        pt_node = next(line for line in tree.splitlines() if "PT[2 patterns]" in line)
        assert "[recovery: fetch_retries=1 retry_waves=1" in pt_node
        join_edge = next(line for line in tree.splitlines() if "join on ['r']" in line)
        assert "[recovery: task_retries=1 retry_waves=1" in join_edge
        vp_scan = next(
            line for line in engine_plan.splitlines() if "TableScan(vp_reviewer" in line
        )
        assert "recovery: task_retries=2 retry_waves=2 retry_backoff_sec=" in vp_scan
        assert "(recovery: worker_losses=1)" in engine_plan

        # Recovery changes a query's cost, never its rows.
        faulted = prost_watdiv.sparql(query)
        assert faulted.rows == clean_rows
        metrics = faulted.report.engine_report.metrics
        assert (metrics.task_retries, metrics.fetch_retries, metrics.worker_losses) == (
            3, 1, 1
        )
