"""The worked EXPLAIN ANALYZE query from docs/ARCHITECTURE.md, runnable.

Loads a small WatDiv graph, shows the estimate-only EXPLAIN, executes the
query under a tracer, then re-renders the plan with actual row counts, join
strategies, and data movement — and demonstrates that the trace reconciles
with the run's ExecutionMetrics.

Run from the repository root::

    PYTHONPATH=src python examples/explain_walkthrough.py
"""

from repro.core.prost import ProstEngine
from repro.obs import Tracer, snapshot_execution_metrics
from repro.watdiv.generator import generate_watdiv

QUERY = """SELECT ?v ?name ?u WHERE {
  ?v sorg:caption ?name .
  ?v rev:hasReview ?r .
  ?r rev:reviewer ?u .
}"""


def main() -> None:
    """Load, EXPLAIN, EXPLAIN ANALYZE, and reconcile the trace."""
    print("# Loading WatDiv (scale=120, seed=3) into PRoST (mixed strategy)...")
    dataset = generate_watdiv(scale=120, seed=3)
    engine = ProstEngine(num_workers=9, strategy="mixed")
    load_report = engine.load(dataset.graph)
    print(f"#   {load_report.summary()}")

    print("\n# EXPLAIN — statistics-based estimates, nothing executed:\n")
    print(engine.explain(QUERY))

    print("\n# EXPLAIN ANALYZE — the query runs; every node gains actuals:\n")
    print(engine.explain(QUERY, analyze=True))

    print("\n# The raw span tree behind the ANALYZE render:\n")
    tracer = Tracer()
    result = engine.sparql(QUERY, tracer=tracer)
    report = result.report
    print(report.engine_report.explain())

    print("\n# Reconciliation: root-span counter deltas == ExecutionMetrics:")
    totals = snapshot_execution_metrics(report.engine_report.metrics)
    root = report.engine_report.trace
    for name in ("engine.bytes_scanned", "engine.broadcast_bytes",
                 "engine.shuffle_bytes"):
        print(f"#   {name:24} span={root.counters.get(name, 0):>8} "
              f"metrics={totals[name]:>8}")
    print(f"#   rows: result={len(result.rows)} "
          f"root span rows_out={root.attrs['rows_out']}")

    print("\n# Writing the full trace to explain_trace.json")
    tracer.write_json("explain_trace.json")


if __name__ == "__main__":
    main()
