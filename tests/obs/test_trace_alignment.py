"""Property tests: span counters must reconcile with ExecutionMetrics.

Each physical-operator span records the *delta* of every counter while it
was open, so the root operator span's deltas must equal the query's final
``ExecutionMetrics`` totals, leaf scan spans must sum to the scan totals,
and the traced ``rows_out`` attributes must match both the metrics and the
actual result. Run over the full WatDiv basic query mix so the invariant
holds across star, linear, snowflake, and complex shapes — not just the
hand-picked golden queries.
"""

import pytest

from repro.obs import Tracer, snapshot_execution_metrics
from repro.watdiv.queries import basic_query_set

#: Counters that accumulate strictly through operator execution, so the
#: root span's deltas must account for all of them.
ADDITIVE = (
    "engine.bytes_scanned",
    "engine.rows_scanned",
    "engine.shuffle_bytes",
    "engine.shuffle_rows",
    "engine.broadcast_bytes",
    "engine.broadcast_count",
    "engine.colocated_joins",
)


def _queries(dataset):
    return [q for q in basic_query_set(dataset) if q.group in ("C", "F", "S")]


def _engine_trace(report):
    engine_report = report.engine_report
    assert engine_report is not None and engine_report.trace is not None
    return engine_report


class TestTraceMatchesMetrics:
    def test_root_span_deltas_equal_metrics_totals(self, prost_watdiv, watdiv_dataset):
        for query in _queries(watdiv_dataset):
            tracer = Tracer()
            result = prost_watdiv.sparql(query.text, tracer=tracer)
            engine_report = _engine_trace(result.report)
            totals = snapshot_execution_metrics(engine_report.metrics)
            root = engine_report.trace
            for name in ADDITIVE:
                assert root.counters.get(name, 0) == totals[name], (
                    f"{query.name}: {name} root-span delta "
                    f"{root.counters.get(name, 0)} != metrics {totals[name]}"
                )

    def test_scan_spans_sum_to_scan_totals(self, prost_watdiv, watdiv_dataset):
        for query in _queries(watdiv_dataset):
            tracer = Tracer()
            result = prost_watdiv.sparql(query.text, tracer=tracer)
            engine_report = _engine_trace(result.report)
            metrics = engine_report.metrics
            scans = [
                s for s in engine_report.trace.walk()
                if s.attrs.get("op") == "scan"
            ]
            assert scans, f"{query.name}: no scan spans recorded"
            assert sum(
                s.counters.get("engine.bytes_scanned", 0) for s in scans
            ) == metrics.bytes_scanned
            assert sum(
                s.counters.get("engine.rows_scanned", 0) for s in scans
            ) == metrics.rows_scanned

    def test_root_rows_out_matches_metrics_rows_output(
        self, prost_watdiv, watdiv_dataset
    ):
        for query in _queries(watdiv_dataset):
            tracer = Tracer()
            result = prost_watdiv.sparql(query.text, tracer=tracer)
            engine_report = _engine_trace(result.report)
            root = engine_report.trace
            assert root.attrs["rows_out"] == engine_report.metrics.rows_output
            query_span = tracer.roots[0]
            assert query_span.name == "query"
            assert query_span.attrs["rows"] == len(result.rows)

    def test_every_operator_span_is_tagged(self, prost_watdiv, watdiv_dataset):
        query = _queries(watdiv_dataset)[0]
        tracer = Tracer()
        result = prost_watdiv.sparql(query.text, tracer=tracer)
        engine_report = _engine_trace(result.report)
        for span in engine_report.trace.walk():
            assert "op" in span.attrs, f"untagged span {span.name}"
            assert "rows_out" in span.attrs
            if span.attrs["op"] in ("join", "cross"):
                assert "strategy" in span.attrs

    def test_untraced_run_records_nothing(self, prost_watdiv, watdiv_dataset):
        query = _queries(watdiv_dataset)[0]
        report = prost_watdiv.sparql(query.text).report
        assert report.trace is None
        assert report.engine_report.trace is None


class TestLoadTracing:
    def test_load_produces_layered_spans(self, watdiv_dataset):
        from repro.core.prost import ProstEngine

        tracer = Tracer()
        engine = ProstEngine(num_workers=3, strategy="mixed")
        engine.load(watdiv_dataset.graph, tracer=tracer)
        (load,) = tracer.roots
        assert load.name == "load"
        assert load.attrs["triples"] == len(watdiv_dataset.graph)
        child_names = [s.name for s in load.children]
        assert "collect_statistics" in child_names
        assert "load_vertical_partitioning" in child_names
        assert "load_property_table" in child_names


@pytest.mark.parametrize("shape", ["optional", "union"])
def test_explain_analyze_handles_non_bgp_shapes(prost_watdiv, shape):
    # OPTIONAL / UNION queries cannot align spans to one join tree; EXPLAIN
    # ANALYZE must still render (estimate-only tree + traced engine plan).
    if shape == "optional":
        query = """SELECT ?v ?name ?r WHERE {
  ?v sorg:caption ?name .
  OPTIONAL { ?v rev:hasReview ?r }
}"""
        marker = "OPTIONAL:"
    else:
        query = """SELECT ?v WHERE {
  { ?v wsdbm:likes ?a } UNION { ?v wsdbm:follows ?b }
}"""
        marker = "UNION:"
    rendered = prost_watdiv.explain(query, analyze=True)
    assert marker in rendered
    assert "== Engine Plan ==" in rendered
    assert "rows=" in rendered.split("== Engine Plan ==")[1]
