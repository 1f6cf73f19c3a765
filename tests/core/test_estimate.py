"""The planner's one row estimator and the consumers that read it.

- EXPLAIN prints, for every node, the number the translator ordered by;
- the estimate depends on each constant's kind, never its value;
- EXPLAIN prices a cartesian join at the product of its sides.
"""

import re
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProstEngine
from repro.core.estimate import join_rows, node_rows
from repro.core.executor import JoinTreeExecutor
from repro.core.join_tree import ObjectPtNode, PtNode, VpNode
from repro.core.translator import JoinTreeTranslator
from repro.obs.explain import _render_node, render_join_tree
from repro.rdf import Graph
from repro.rdf.stats import collect_statistics
from repro.rdf.terms import IRI, Literal
from repro.sparql import parse_sparql
from repro.sparql.algebra import TriplePattern, Variable
from repro.watdiv.generator import generate_watdiv
from repro.watdiv.queries import basic_query_set

#: Translator settings and statistics level per planner configuration.
CONFIGURATIONS = {
    "mixed": ({"strategy": "mixed"}, "simple"),
    "vp": ({"strategy": "vp"}, "simple"),
    "object_pt": (
        {"strategy": "mixed", "use_object_property_table": True},
        "extended",
    ),
}

_EST = re.compile(r"  est=(\d+) rows")


@lru_cache(maxsize=None)
def watdiv(scale: int):
    dataset = generate_watdiv(scale=scale)
    bgps = [parse_sparql(query.text).patterns for query in basic_query_set(dataset)]
    return dataset.graph, bgps


@lru_cache(maxsize=None)
def statistics(scale: int, level: str):
    return collect_statistics(watdiv(scale)[0], level)


def render_order(node):
    """Nodes in the order EXPLAIN draws them: each node, then its children
    in descending priority (the executor's fold order)."""
    yield node
    for child in sorted(node.children, key=lambda n: -n.priority):
        yield from render_order(child)


class TestExplainReadsThePlannersEstimate:
    def test_every_template_node_prints_node_rows(self):
        """At scale 400, every node's ``est`` is ``round(node_rows)``: the
        number the translator's priority was computed from."""
        checked = 0
        for settings_, level in CONFIGURATIONS.values():
            stats = statistics(400, level)
            translator = JoinTreeTranslator(stats, **settings_)
            for bgp in watdiv(400)[1]:
                tree = translator.translate_bgp(bgp)
                printed = [
                    int(match.group(1))
                    for match in map(_EST.search, render_join_tree(tree, stats).splitlines())
                    if match
                ]
                expected = [round(node_rows(n, stats)) for n in render_order(tree.root)]
                assert printed == expected, tree.describe()
                checked += len(expected)
        assert checked > 100


def test_join_rows_keyed_is_max_cartesian_is_product():
    assert join_rows(3, 7, keyed=True) == 7
    assert join_rows(3, 7, keyed=False) == 21
    assert join_rows(2.5, 4.0, keyed=False) == 10.0


# -- constant substitution ----------------------------------------------------

_WATDIV_STATS = {level: statistics(150, level) for level in ("simple", "extended")}
_PREDICATES = sorted(_WATDIV_STATS["simple"].predicates)

_iris = st.builds(IRI, st.sampled_from(
    ["http://db.uwaterloo.ca/~galuc/wsdbm/User0", "http://example.org/x",
     "http://db.uwaterloo.ca/~galuc/wsdbm/Product7", "http://ex/nowhere"]
))
_literals = st.builds(
    Literal,
    st.text(max_size=6),
    st.sampled_from([None, "http://www.w3.org/2001/XMLSchema#integer"]),
)


@st.composite
def _slot(draw, name: str):
    """A variable, an IRI constant or a literal constant for one slot."""
    kind = draw(st.sampled_from(["var", "iri", "literal"]))
    if kind == "var":
        return Variable(name)
    return draw(_iris if kind == "iri" else _literals)


@st.composite
def _substituted(draw, term):
    """``term`` with a constant replaced by another of the same kind."""
    if isinstance(term, IRI):
        return draw(_iris)
    if isinstance(term, Literal):
        return draw(_literals)
    return term


@st.composite
def _node_pair(draw):
    """A node and its twin with every constant swapped for another."""
    kind = draw(st.sampled_from([VpNode, PtNode, ObjectPtNode]))
    count = 1 if kind is VpNode else draw(st.integers(2, 4))
    predicates = draw(
        st.lists(st.sampled_from(_PREDICATES), min_size=count, max_size=count, unique=True)
    )
    subject = draw(st.one_of(st.just(Variable("s")), _iris))
    shared_object = draw(_slot("o"))
    patterns = []
    for index, predicate in enumerate(predicates):
        if kind is ObjectPtNode:
            pattern_subject, pattern_object = Variable(f"s{index}"), Variable("o")
        else:
            pattern_subject = subject
            pattern_object = draw(_slot(f"o{index}")) if kind is PtNode else shared_object
        patterns.append(TriplePattern(pattern_subject, IRI(predicate), pattern_object))
    twin = [
        TriplePattern(
            draw(_substituted(p.subject)), p.predicate, draw(_substituted(p.object))
        )
        for p in patterns
    ]
    return kind(patterns=tuple(patterns)), kind(patterns=tuple(twin))


@given(_node_pair(), st.sampled_from(["simple", "extended"]))
@settings(max_examples=200, deadline=None)
def test_estimate_and_priority_ignore_constant_values(pair, level):
    """Substituting one constant for another of the same kind changes
    neither the row estimate nor the priority: a plan keyed by the query's
    shape with its constants abstracted orders the same tree."""
    node, twin = pair
    stats = _WATDIV_STATS[level]
    translator = JoinTreeTranslator(stats)
    assert node_rows(twin, stats) == node_rows(node, stats)
    assert translator.score(twin) == translator.score(node)


# -- cartesian joins ----------------------------------------------------------

_DISCONNECTED = """
<http://ex/a> <http://ex/likes> <http://ex/x> .
<http://ex/b> <http://ex/likes> <http://ex/x> .
<http://ex/c> <http://ex/likes> <http://ex/y> .
<http://ex/x> <http://ex/title> "X" .
<http://ex/y> <http://ex/title> "Y" .
"""


def test_explain_prices_a_cartesian_join_at_the_product():
    """A disconnected BGP joins its two VP nodes as a cartesian product:
    EXPLAIN's subtree estimate is the product of the two tables' sizes
    (3 × 2), which is exactly the rows the product returns."""
    engine = ProstEngine()
    engine.load(Graph.from_ntriples(_DISCONNECTED))
    patterns = parse_sparql(
        "SELECT * WHERE { ?a <http://ex/likes> ?b . ?c <http://ex/title> ?d }"
    ).patterns
    tree = engine._translator.translate_bgp(patterns)
    assert len(tree.root.children) == 1
    explained = _render_node(tree.root, engine.store.statistics, None, None, [], 0)
    rows = JoinTreeExecutor(engine.store).build(tree).collect()
    assert explained == join_rows(3, 2, keyed=False) == len(rows) == 6
