"""One broadcast rule, two readers.

The build-side rule and the scaled threshold live in
:mod:`repro.engine.cluster`; the executor's strategy and build side and
EXPLAIN's ``(est)`` prediction must agree on every cell of inner/left ×
right side smaller/equal/larger × threshold below/at/above the build side.
"""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.core.join_tree import JoinTree, VpNode
from repro.engine import ClusterConfig, EngineSession, SimulatedCluster
from repro.engine.cluster import broadcast_build, relation_bytes
from repro.engine.logical import InMemoryRelation, Join
from repro.obs import Tracer
from repro.obs.explain import render_join_tree
from repro.rdf.stats import GraphStatistics, PredicateStatistics
from repro.rdf.terms import IRI
from repro.sparql.algebra import TriplePattern, Variable

LEFT_ROWS = 4
#: Right-side row counts making it smaller than, equal to, larger than the left.
RIGHT_ROWS = {"smaller": 2, "equal": LEFT_ROWS, "larger": 6}
#: Threshold offset from the build side's size.
THRESHOLD_OFFSET = {"below": -1, "at": 0, "above": 1}


def expected(how: str, sizes: str, threshold: str) -> tuple[str, str]:
    """The rule, spelled out cell by cell: (strategy, build side)."""
    build = "left" if how == "inner" and sizes == "larger" else "right"
    strategy = "shuffle" if threshold == "below" else "broadcast"
    return strategy, build


CASES = [
    (how, sizes, threshold)
    for how in ("inner", "left")
    for sizes in RIGHT_ROWS
    for threshold in THRESHOLD_OFFSET
]


def relation(name: str, rows: int) -> InMemoryRelation:
    schema = TableSchema([ColumnSchema("k", "string"), ColumnSchema(name, "string")])
    return InMemoryRelation(schema, tuple((f"k{i:03d}", f"v{i:03d}") for i in range(rows)))


def join(how: str, sizes: str) -> Join:
    return Join(
        relation("a", LEFT_ROWS), relation("b", RIGHT_ROWS[sizes]), on=("k",), how=how
    )


def config(threshold_bytes: int) -> ClusterConfig:
    return ClusterConfig(num_workers=3, broadcast_threshold_bytes=threshold_bytes)


def run_join(plan: Join, threshold_bytes: int) -> tuple[str, str | None]:
    """The executor's (strategy, build side) read off its join span."""
    session = EngineSession(SimulatedCluster(config(threshold_bytes)))
    tracer = Tracer()
    session.execute(plan, run_optimizer=False, tracer=tracer)
    span = next(s for root in tracer.roots for s in root.walk() if s.attrs.get("op") == "join")
    strategy = span.attrs["strategy"].removesuffix("-hash")
    return strategy, span.attrs.get("build")


def measured_bytes(plan) -> int:
    session = EngineSession(SimulatedCluster(config(0)))
    data, _ = session.execute(plan, run_optimizer=False)
    return data.estimated_bytes()


@pytest.mark.parametrize("how,sizes,threshold", CASES)
def test_executor_follows_the_rule(how, sizes, threshold):
    plan = join(how, sizes)
    _, build_bytes = broadcast_build(
        measured_bytes(plan.left), measured_bytes(plan.right), how
    )
    strategy, build = run_join(plan, build_bytes + THRESHOLD_OFFSET[threshold])
    want_strategy, want_build = expected(how, sizes, threshold)
    assert strategy == want_strategy
    assert build == (want_build if want_strategy == "broadcast" else None)


@pytest.mark.parametrize(
    "sizes,threshold", [(s, t) for how, s, t in CASES if how == "inner"]
)
def test_explain_predicts_the_rule(sizes, threshold):
    """EXPLAIN joins Join-Tree nodes inner; its ``(est)`` strategy follows
    the same rule on the estimated sizes."""
    left_iri, right_iri = "http://ex/left", "http://ex/right"
    statistics = GraphStatistics(
        total_triples=LEFT_ROWS + RIGHT_ROWS[sizes],
        total_subjects=LEFT_ROWS,
        predicates={
            left_iri: PredicateStatistics(LEFT_ROWS, LEFT_ROWS, LEFT_ROWS, False),
            right_iri: PredicateStatistics(
                RIGHT_ROWS[sizes], RIGHT_ROWS[sizes], RIGHT_ROWS[sizes], False
            ),
        },
    )
    k, a, b = Variable("k"), Variable("a"), Variable("b")
    root = VpNode(patterns=(TriplePattern(k, IRI(left_iri), a),))
    root.children.append(VpNode(patterns=(TriplePattern(k, IRI(right_iri), b),)))
    want_strategy, want_build = expected("inner", sizes, threshold)
    build_rows = LEFT_ROWS if want_build == "left" else RIGHT_ROWS[sizes]
    limit = relation_bytes(build_rows, 2) + THRESHOLD_OFFSET[threshold]
    rendered = render_join_tree(JoinTree(root=root), statistics, config(limit))
    assert f": {want_strategy}-hash (est)" in rendered
