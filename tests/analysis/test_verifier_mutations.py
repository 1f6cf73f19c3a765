"""Mutation tests: every seeded plan corruption is rejected with the right
diagnostic, pointing at the offending tree node.

Each test takes a plan the verifier accepts, applies one targeted mutation
(the kind of bug a planner regression would introduce), and asserts the
specific diagnostic code *and* node path."""

from __future__ import annotations

import pytest

from repro.analysis import verify_join_tree, verify_logical_plan, verify_query
from repro.core.join_tree import JoinTree, PtNode, VpNode
from repro.engine.cluster import ClusterConfig, SimulatedCluster
from repro.engine.logical import InMemoryRelation, Join, TableScan
from repro.engine.session import EngineSession
from repro.columnar.schema import ColumnSchema, TableSchema
from repro.sparql.parser import parse_sparql

CHAIN = (
    "SELECT ?x WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/knows> ?z . "
    "?z <http://ex/knows> ?w }"
)
STAR = "SELECT ?x WHERE { ?x <http://ex/name> ?n . ?x <http://ex/age> ?a }"


def chain_patterns():
    return parse_sparql(CHAIN).patterns


def codes(diagnostics):
    return [d.code for d in diagnostics]


# -- join-tree mutations ------------------------------------------------------


def test_clean_translated_tree_verifies(prost_mixed):
    tree = prost_mixed.translate(STAR)
    assert verify_join_tree(tree, translator=prost_mixed._translator) == []


def test_misattached_node_is_cartesian_pv102():
    """Swapping a node's attachment point to a variable-disjoint parent."""
    p_xy, p_yz, p_zw = chain_patterns()
    root = VpNode(patterns=(p_yz,), priority=-10.0)
    middle = VpNode(patterns=(p_xy,), priority=-5.0)
    leaf = VpNode(patterns=(p_zw,), priority=-1.0)
    # Correct shape: both neighbors hang off the shared-variable root.
    root.children = [middle, leaf]
    assert verify_join_tree(JoinTree(root=root)) == []
    # Mutation: move {z,w} below {x,y}, which shares no variable with it.
    root.children = [middle]
    middle.children = [leaf]
    diagnostics = verify_join_tree(JoinTree(root=root))
    assert codes(diagnostics) == ["PV102"]
    assert diagnostics[0].node_path == "root.children[0].children[0]"


def test_split_pt_group_pv103(prost_mixed):
    tree = prost_mixed.translate(STAR)
    (pt_node,) = tree.nodes
    assert isinstance(pt_node, PtNode)
    other = parse_sparql(CHAIN).patterns[0]  # subject ?x — same; use ?y one
    foreign = parse_sparql(CHAIN).patterns[1]  # subject ?y
    pt_node.patterns = (pt_node.patterns[0], foreign)
    diagnostics = verify_join_tree(tree)
    assert "PV103" in codes(diagnostics)
    assert all(d.node_path == "root" for d in diagnostics)
    del other


def test_undersized_pt_group_pv110(prost_mixed):
    tree = prost_mixed.translate(STAR)
    (pt_node,) = tree.nodes
    pt_node.patterns = pt_node.patterns[:1]  # mutation: 1-pattern PT group
    diagnostics = verify_join_tree(tree)
    assert codes(diagnostics) == ["PV110"]
    assert "below the minimum group size" in diagnostics[0].message


def test_multi_pattern_vp_node_pv110():
    p_xy, p_yz, _ = chain_patterns()
    root = VpNode(patterns=(p_xy, p_yz))
    diagnostics = verify_join_tree(JoinTree(root=root))
    assert codes(diagnostics) == ["PV110"]
    assert "exactly one pattern" in diagnostics[0].message


def test_unbound_predicate_in_pt_node_pv104():
    parsed = parse_sparql("SELECT ?x WHERE { ?x ?p ?n . ?x <http://ex/age> ?a }")
    node = PtNode(patterns=parsed.patterns)
    diagnostics = verify_join_tree(JoinTree(root=node))
    assert "PV104" in codes(diagnostics)


def test_tampered_priority_pv105(prost_mixed):
    tree = prost_mixed.translate(CHAIN)
    translator = prost_mixed._translator
    assert verify_join_tree(tree, translator=translator) == []
    leaf = tree.nodes[-1]
    leaf.priority += 12345.0  # mutation: stale/tampered priority
    diagnostics = verify_join_tree(tree, translator=translator)
    assert codes(diagnostics) == ["PV105"]
    assert diagnostics[0].node_path != "root"


def test_non_minimal_root_pv106():
    p_xy, p_yz, _ = chain_patterns()
    child = VpNode(patterns=(p_yz,), priority=-50.0)
    root = VpNode(patterns=(p_xy,), priority=-1.0, children=[child])
    diagnostics = verify_join_tree(JoinTree(root=root))
    assert codes(diagnostics) == ["PV106"]
    assert diagnostics[0].node_path == "root.children[0]"


def test_pattern_coverage_pv109(prost_mixed):
    tree = prost_mixed.translate(CHAIN)
    full = chain_patterns()
    assert verify_join_tree(tree, patterns=full) == []
    diagnostics = verify_join_tree(tree, patterns=full[:2])
    assert codes(diagnostics) == ["PV109"]
    assert "extraneous" in diagnostics[0].message


def test_unbound_projection_variable_pv101(prost_mixed):
    import dataclasses

    from repro.sparql.algebra import Variable

    # The parser rejects this at the syntax level; the verifier must also
    # catch it for trees assembled programmatically.
    parsed = parse_sparql("SELECT ?x WHERE { ?x <http://ex/knows> ?y }")
    tampered = dataclasses.replace(parsed, variables=(Variable("ghost"),))
    tree = prost_mixed._translator.translate_bgp(tampered.patterns)
    diagnostics = verify_query(tampered, [tree])
    assert codes(diagnostics) == ["PV101"]
    assert "?ghost" in diagnostics[0].message


# -- logical-plan mutations ---------------------------------------------------


@pytest.fixture()
def session():
    return EngineSession(SimulatedCluster(ClusterConfig(num_workers=2)))


def _register(session, name, rows, partition_columns=None, value_column="o"):
    schema = TableSchema(
        [ColumnSchema("s", "string"), ColumnSchema(value_column, "string")]
    )
    session.register_rows(name, schema, rows, partition_columns=partition_columns)
    return schema


def test_shuffle_hint_discards_copartitioning_pv205(session):
    left_schema = _register(session, "lp", [("a", "1")], partition_columns=("s",))
    right_schema = _register(
        session, "rp", [("a", "2")], partition_columns=("s",), value_column="o2"
    )
    left = TableScan("lp", left_schema)
    right = TableScan("rp", right_schema)
    plan = Join(left=left, right=right, on=("s",), hint="shuffle")
    diagnostics = verify_logical_plan(plan, catalog=session.catalog)
    assert codes(diagnostics) == ["PV205"]
    assert diagnostics[0].node_path == "plan"


def test_join_key_type_mismatch_pv201():
    left = InMemoryRelation(
        TableSchema([ColumnSchema("k", "string"), ColumnSchema("a", "string")]),
        (("x", "1"),),
    )
    right = InMemoryRelation(
        TableSchema([ColumnSchema("k", "int"), ColumnSchema("b", "string")]),
        ((1, "2"),),
    )
    plan = Join(left=left, right=right, on=("k",))
    diagnostics = verify_logical_plan(plan)
    assert codes(diagnostics) == ["PV201"]
    assert diagnostics[0].node_path == "plan"
    assert "'string'" in diagnostics[0].message and "'int'" in diagnostics[0].message
