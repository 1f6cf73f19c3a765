"""Zero-false-positive sweeps: the verifier accepts every plan the shipped
planners produce — the WatDiv basic query set on all four logical-plan
systems, and the tier-1 differential fuzz corpus.

(The corpus also runs the verifier implicitly: ``ProstEngine`` checks every
plan it builds, so every engine query in the test suite is a regression
check.)"""

from __future__ import annotations

import pytest

from repro.analysis import verify_logical_plan
from repro.baselines import S2Rdf, SparqlGx, SparqlGxDirect
from repro.core.prost import ProstEngine
from repro.sparql.parser import parse_sparql
from repro.testing import DifferentialRunner
from repro.watdiv.generator import generate_watdiv
from repro.watdiv.queries import basic_query_set

WATDIV_SCALE = 60


@pytest.fixture(scope="module")
def watdiv():
    return generate_watdiv(scale=WATDIV_SCALE, seed=7)


@pytest.mark.parametrize("strategy", ["mixed", "vp"])
def test_watdiv_sweep_prost(watdiv, strategy):
    engine = ProstEngine(num_workers=4, strategy=strategy)
    engine.load(watdiv.graph)
    for query in basic_query_set(watdiv):
        diagnostics = engine.verify(query.text)
        assert diagnostics == [], (
            f"{query.name} ({strategy}): "
            + "; ".join(d.format() for d in diagnostics)
        )


@pytest.mark.parametrize("system", [S2Rdf, SparqlGx, SparqlGxDirect])
def test_watdiv_sweep_baselines(watdiv, system):
    engine = system(num_workers=4)
    engine.load(watdiv.graph)
    for query in basic_query_set(watdiv):
        frame = engine.dataframe(parse_sparql(query.text))
        if frame is None:  # S2RDF proves the result empty at plan time
            continue
        diagnostics = verify_logical_plan(frame.plan, catalog=engine.session.catalog)
        assert diagnostics == [], (
            f"{query.name} ({engine.name}): "
            + "; ".join(d.format() for d in diagnostics)
        )


def test_fuzz_corpus_clean():
    """All 200 tier-1 fuzz cases verify clean under the mixed strategy."""
    runner = DifferentialRunner(queries_per_graph=10)
    checked = 0
    for seed in range(20):
        graph, queries = runner.generate_case(seed)
        engine = ProstEngine(num_workers=3, strategy="mixed")
        engine.load(graph)
        for query in queries:
            diagnostics = engine.verify(query)
            assert diagnostics == [], (
                f"seed {seed}: {query}\n"
                + "; ".join(d.format() for d in diagnostics)
            )
            checked += 1
    assert checked == 200


def test_plan_check_is_on_by_default(social_graph, monkeypatch):
    """Every plan the engine builds is checked — so every other test in the
    suite doubles as a verifier regression."""
    import repro.analysis

    calls = []
    check_query = repro.analysis.check_query

    def counting(*args, **kwargs):
        calls.append(args[0])
        return check_query(*args, **kwargs)

    monkeypatch.setattr(repro.analysis, "check_query", counting)
    engine = ProstEngine()
    engine.load(social_graph)
    query = "SELECT ?x WHERE { ?x <http://ex/knows> ?y }"
    engine.sparql(query)
    engine.sparql(query)  # plan-cache hit: nothing new to check
    assert len(calls) == 1
