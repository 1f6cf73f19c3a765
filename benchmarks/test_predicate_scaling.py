"""Paper claim — loading cost vs number of distinct predicates.

§2: "[S2RDF] trades off the performances with disk space and loading time.
For datasets with a large number of properties (e.g., DBpedia), the time
required may make the loading unfeasible." And §4.4: PRoST "relies on a
faster loading phase and its performances does not depend on the particular
input graph, i.e. number of predicates."

We synthesize graphs with a fixed triple count but a growing predicate
vocabulary and measure simulated loading time: S2RDF's pairwise ExtVP sweep
must grow superlinearly in the predicate count, while PRoST grows about
linearly (one table job per predicate).
"""

import random

from repro.baselines.s2rdf import S2Rdf
from repro.core.prost import ProstEngine
from repro.engine.cluster import ClusterConfig
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Triple

PREDICATE_COUNTS = (8, 16, 32)
TRIPLES = 4000


def synthetic_graph(num_predicates: int, seed: int = 5) -> Graph:
    """A fixed-size random graph over a configurable predicate vocabulary."""
    rng = random.Random(seed)
    subjects = [IRI(f"http://syn/s{i}") for i in range(400)]
    objects = [IRI(f"http://syn/o{i}") for i in range(400)]
    predicates = [IRI(f"http://syn/p{i}") for i in range(num_predicates)]
    graph = Graph()
    while len(graph) < TRIPLES:
        graph.add(
            Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
        )
    return graph


def test_loading_vs_predicate_count(save_artifact):
    config = ClusterConfig(num_workers=9, data_scale=100_000_000 / TRIPLES)

    def measure():
        results = {}
        for count in PREDICATE_COUNTS:
            graph = synthetic_graph(count)
            prost = ProstEngine(cluster_config=config)
            s2rdf = S2Rdf(cluster_config=config, selectivity_threshold=0.75)
            results[count] = (
                prost.load(graph).simulated_sec,
                s2rdf.load(graph).simulated_sec,
            )
        return results

    results = measure()

    lines = [
        "Loading time vs predicate vocabulary (fixed 4k triples, simulated s)",
        f"{'predicates':<12}{'PRoST':>10}{'S2RDF':>12}{'S2RDF/PRoST':>14}",
    ]
    for count in PREDICATE_COUNTS:
        prost_sec, s2rdf_sec = results[count]
        lines.append(
            f"{count:<12}{prost_sec:>10,.0f}{s2rdf_sec:>12,.0f}"
            f"{s2rdf_sec / prost_sec:>14.1f}"
        )
    save_artifact("predicate_scaling", "\n".join(lines))

    smallest, largest = PREDICATE_COUNTS[0], PREDICATE_COUNTS[-1]
    vocabulary_growth = largest / smallest
    prost_growth = results[largest][0] / results[smallest][0]
    s2rdf_growth = results[largest][1] / results[smallest][1]
    # PRoST: about linear in the predicate count (per-table load jobs).
    assert prost_growth < vocabulary_growth * 1.5
    # S2RDF: clearly superlinear (the P² ExtVP sweep).
    assert s2rdf_growth > prost_growth * 1.5
    # And the gap widens with the vocabulary, the paper's DBpedia warning.
    assert results[largest][1] / results[largest][0] > (
        results[smallest][1] / results[smallest][0]
    )
