"""Soundness of the verifier's static partitioning derivation.

Every sub-plan of every optimized plan the planners produce is executed on
its own, and wherever the static derivation names a partitioning, the
runtime dataset must be hash-placed on exactly those columns. The other
direction is not required: a broadcast join keeps its probe side's
placement at run time, which the static side cannot know before sizes are
in hand, so it derives no partitioning there.
"""

from __future__ import annotations

import pytest

from repro.analysis.verifier import _derive
from repro.baselines import S2Rdf, SparqlGx
from repro.core.prost import ProstEngine
from repro.engine.optimizer import optimize
from repro.sparql.parser import parse_sparql
from repro.testing import DifferentialRunner
from repro.watdiv.generator import generate_watdiv
from repro.watdiv.queries import basic_query_set

WATDIV_SCALE = 120

SYSTEMS = {
    "prost-mixed": lambda: ProstEngine(num_workers=4, strategy="mixed"),
    "prost-vp": lambda: ProstEngine(num_workers=4, strategy="vp"),
    "s2rdf": lambda: S2Rdf(num_workers=4),
    "sparqlgx": lambda: SparqlGx(num_workers=4),
}


def sub_plans(plan):
    yield plan
    for child in plan.children:
        yield from sub_plans(child)


def check_engine(engine, queries) -> tuple[int, int]:
    """``(sub-plans checked, sub-plans with a derived partitioning)``;
    asserts every derived partitioning matches the runtime partitioner."""
    session = engine.session
    checked = named = 0
    for query in queries:
        frame = engine.dataframe(query)
        if isinstance(frame, tuple):  # PRoST: (frame, Join Tree text)
            frame = frame[0]
        if frame is None:  # S2RDF proved the result empty at plan time
            continue
        plan = frame.plan
        if getattr(engine, "run_optimizer", True):
            plan = optimize(plan)
        for sub in sub_plans(plan):
            derived = _derive(sub, "plan", session.catalog, [])
            data, _ = session.execute(sub, run_optimizer=False)
            checked += 1
            if derived is None:
                continue
            named += 1
            runtime = data.partitioner
            assert runtime is not None and runtime.columns == derived, (
                f"{engine.name}: {query}\n{sub.describe()}\nderived "
                f"{derived}, runtime "
                f"{runtime.columns if runtime is not None else None}"
            )
    return checked, named


@pytest.fixture(scope="module")
def watdiv():
    return generate_watdiv(scale=WATDIV_SCALE, seed=7)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_watdiv_templates(watdiv, system):
    engine = SYSTEMS[system]()
    engine.load(watdiv.graph)
    queries = [parse_sparql(query.text) for query in basic_query_set(watdiv)]
    checked, named = check_engine(engine, queries)
    # SPARQLGX stores its VP tables unkeyed: no template reads a placement.
    assert checked > 0 and (named > 0) == (system != "sparqlgx")


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_fuzz_corpus(system):
    runner = DifferentialRunner(queries_per_graph=10)
    total = 0
    for seed in range(20):
        graph, queries = runner.generate_case(seed)
        engine = SYSTEMS[system]()
        engine.load(graph)
        check_engine(engine, queries)
        total += len(queries)
    assert total == 200
