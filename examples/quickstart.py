"""Quickstart: load a small RDF graph into PRoST and run SPARQL queries.

Run with::

    python examples/quickstart.py
"""

from repro import Graph, ProstEngine

NT = """
<http://example.org/alice>  <http://example.org/knows> <http://example.org/bob> .
<http://example.org/alice>  <http://example.org/knows> <http://example.org/carol> .
<http://example.org/bob>    <http://example.org/knows> <http://example.org/carol> .
<http://example.org/alice>  <http://example.org/name>  "Alice" .
<http://example.org/bob>    <http://example.org/name>  "Bob" .
<http://example.org/carol>  <http://example.org/name>  "Carol" .
<http://example.org/alice>  <http://example.org/age>   "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://example.org/bob>    <http://example.org/age>   "25"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://example.org/carol>  <http://example.org/city>  <http://example.org/paris> .
"""


def main() -> None:
    graph = Graph.from_ntriples(NT)
    print(f"Loaded graph: {graph}")

    # PRoST stores the graph twice: Vertical Partitioning tables (one table
    # per predicate) plus the Property Table (one wide row per subject).
    engine = ProstEngine(num_workers=9)
    report = engine.load(graph)
    print(f"Load: {report.summary()}\n")

    # A star query: both patterns share ?person, so the translator answers
    # them with ONE Property Table select — no join at all.
    star = """
        SELECT ?name ?age WHERE {
            ?person <http://example.org/name> ?name .
            ?person <http://example.org/age>  ?age .
        }
    """
    print("Star query (answered by the Property Table):")
    for name, age in engine.sparql(star):
        print(f"  {name} is {age}")
    print(engine.explain(star), "\n")

    # A chain query: distinct subjects, answered by joining VP tables.
    chain = """
        SELECT ?a ?c WHERE {
            ?a <http://example.org/knows> ?b .
            ?b <http://example.org/knows> ?c .
        }
    """
    print("Chain query (Vertical Partitioning joins):")
    result = engine.sparql(chain)
    for a, c in result:
        print(f"  {a} knows someone who knows {c}")

    # Every result carries an execution report with the simulated cluster
    # cost (the paper's 9-worker Gigabit cluster) and operator metrics.
    print(f"\nLast query: {result.report.summary()}")


if __name__ == "__main__":
    main()
