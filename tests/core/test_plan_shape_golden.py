"""Golden digest of every Join Tree the translator builds.

One sha256 per configuration over each tree's node labels, patterns,
``repr(priority)`` and child order, for the twenty WatDiv templates at
scales 150/400/600 and for the 200 BGPs of the fixed fuzz corpus. The
digests were recorded before the row estimates moved behind
:mod:`repro.core.estimate`; a digest that moves means a Join Tree or a
priority moved, bit for bit. Statistics come from ``collect_statistics``
alone (no load), so the test stays cheap.
"""

import hashlib
from functools import lru_cache

import pytest

from repro.core.translator import JoinTreeTranslator
from repro.rdf.stats import collect_statistics
from repro.sparql import parse_sparql
from repro.testing import DifferentialRunner
from repro.watdiv.generator import generate_watdiv
from repro.watdiv.queries import basic_query_set

GOLDEN = {
    "mixed": "646d7ffe0f2afd00df9f99e0501a5ced4f5f33cc2a107fa5730edd710f170ba3",
    "vp": "99c11f288f276eb7a5c763aa5be1c2d8f021e31bb5f2c3330fb1bcfc4881ef50",
    "object_pt": "64412712e4e903ae54c61cc135be18d5ae07053b0d3500030a3af8bb1ac8496f",
}

#: Translator settings and statistics level per configuration (the object-PT
#: configuration runs on characteristic sets, as in the stored-form golden).
CONFIGURATIONS = {
    "mixed": ({"strategy": "mixed"}, "simple"),
    "vp": ({"strategy": "vp"}, "simple"),
    "object_pt": (
        {"strategy": "mixed", "use_object_property_table": True},
        "extended",
    ),
}

SCALES = (150, 400, 600)
FUZZ_SEEDS = tuple(range(20))
FUZZ_QUERIES_PER_GRAPH = 10


@lru_cache(maxsize=None)
def template_cases(scale: int):
    """``(graph, [BGP, ...])`` for the twenty templates at one scale."""
    dataset = generate_watdiv(scale=scale)
    bgps = [parse_sparql(query.text).patterns for query in basic_query_set(dataset)]
    return dataset.graph, bgps


@lru_cache(maxsize=None)
def fuzz_cases():
    """``[(graph, [BGP, ...]), ...]`` for the fixed differential corpus."""
    runner = DifferentialRunner(queries_per_graph=FUZZ_QUERIES_PER_GRAPH)
    cases = []
    for seed in FUZZ_SEEDS:
        graph, queries = runner.generate_case(seed)
        cases.append((graph, [query.patterns for query in queries]))
    return cases


def all_cases():
    return [template_cases(scale) for scale in SCALES] + fuzz_cases()


def feed_tree(feed, node) -> None:
    """Preorder: label, patterns, exact priority, then children in order."""
    feed(node.label(), [str(p) for p in node.patterns], repr(node.priority))
    feed(len(node.children))
    for child in node.children:
        feed_tree(feed, child)


def plan_shape_digest(configuration: str) -> str:
    settings, level = CONFIGURATIONS[configuration]
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            data = repr(part).encode("utf-8")
            digest.update(len(data).to_bytes(8, "little"))
            digest.update(data)

    for graph, bgps in all_cases():
        translator = JoinTreeTranslator(collect_statistics(graph, level), **settings)
        for bgp in bgps:
            feed_tree(feed, translator.translate_bgp(bgp).root)
    return digest.hexdigest()


def test_corpus_size():
    """3 scales x 20 templates plus 20 seeds x 10 fuzz BGPs."""
    assert sum(len(bgps) for _, bgps in all_cases()) == 3 * 20 + 200


@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
def test_join_trees_match_the_golden_shape(configuration):
    assert plan_shape_digest(configuration) == GOLDEN[configuration]
