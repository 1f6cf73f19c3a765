"""Exact pin of the partial aggregate: rows and what its partials shuffle.

``tests/engine/test_aggregate.py`` only bounds the partial-group count; this
pins it. Per system × cluster config, every query records a sha256 of its
decoded rows in order, and the ``shuffle_rows`` / ``shuffle_bytes`` the
map-side partial groups charged. The one-worker config has three partitions
instead of eighteen, so the partial count moves while the rows do not.
The values were recorded while the aggregate still kept one partial-state
dict per partition.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.engine import ClusterConfig
from repro.rdf import dictionary as dictionary_module
from repro.rdf.dictionary import TermDictionary
from repro.testing.differential import make_system
from repro.watdiv.generator import generate_watdiv

QUERIES = {
    "group-by-subject": (
        "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s wsdbm:follows ?o } GROUP BY ?s"
    ),
    "group-by-object": (
        "SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s wsdbm:likes ?o } GROUP BY ?o"
    ),
    "group-by-join": (
        "SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s wsdbm:follows ?f . "
        "?f wsdbm:likes ?p } GROUP BY ?p"
    ),
    "count-all": "SELECT (COUNT(*) AS ?n) WHERE { ?s wsdbm:likes ?o }",
    "count-empty": (
        "SELECT (COUNT(*) AS ?n) WHERE { ?s wsdbm:likes ?o . ?o wsdbm:follows ?s }"
    ),
    "count-distinct": "SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s wsdbm:likes ?o }",
    "group-count-distinct": (
        "SELECT ?s (COUNT(DISTINCT ?p) AS ?n) WHERE { ?s wsdbm:follows ?f . "
        "?f wsdbm:likes ?p } GROUP BY ?s"
    ),
}

CONFIGS = {
    "default": ClusterConfig(),
    "one-worker": ClusterConfig(num_workers=1, partitions_per_worker=3),
}

SYSTEMS = ("prost-mixed", "prost-vp")

#: (system, config, query) → (rows digest, row count, shuffle_rows, shuffle_bytes).
PIN: dict[tuple[str, str, str], tuple[str, int, int, int]] = {
    ("prost-mixed", "default", "group-by-subject"): ("dc97722bd482bfee7e4dea85d84012de98ea72fc35e9c591dd5d1eb6147b2c56", 28, 28, 672),
    ("prost-mixed", "default", "group-by-object"): ("600acfebc5d50b874435969577bed62973172bbaf5bb24ebd988d7f0139698f8", 25, 116, 2784),
    ("prost-mixed", "default", "group-by-join"): ("8c9a6aac45dfadcf0de3f5d7070a4018c189f70a016bfbea39693e9ff477494b", 25, 238, 5712),
    ("prost-mixed", "default", "count-all"): ("76ffdc19c73a54b64e137a78c3163ce765c3c114bf6e6aee8aa891acf9d3b470", 1, 16, 384),
    ("prost-mixed", "default", "count-empty"): ("76971b4b0d80ae7394dcf7006de0a2c9c29ad9ec283b36c5725d2de18f05791c", 1, 0, 0),
    ("prost-mixed", "default", "count-distinct"): ("efe5fdaf854f179e40407f4c3782a779f792f715f0ea1f6b405f567451f3e774", 1, 16, 384),
    ("prost-mixed", "default", "group-count-distinct"): ("0d8811f5c7731fa028874bf76b3d9e1c4c08414ef5148e2265bda78ae90da3ab", 28, 28, 672),
    ("prost-mixed", "one-worker", "group-by-subject"): ("dc97722bd482bfee7e4dea85d84012de98ea72fc35e9c591dd5d1eb6147b2c56", 28, 28, 672),
    ("prost-mixed", "one-worker", "group-by-object"): ("600acfebc5d50b874435969577bed62973172bbaf5bb24ebd988d7f0139698f8", 25, 56, 1344),
    ("prost-mixed", "one-worker", "group-by-join"): ("8c9a6aac45dfadcf0de3f5d7070a4018c189f70a016bfbea39693e9ff477494b", 25, 71, 1704),
    ("prost-mixed", "one-worker", "count-all"): ("76ffdc19c73a54b64e137a78c3163ce765c3c114bf6e6aee8aa891acf9d3b470", 1, 3, 72),
    ("prost-mixed", "one-worker", "count-empty"): ("76971b4b0d80ae7394dcf7006de0a2c9c29ad9ec283b36c5725d2de18f05791c", 1, 0, 0),
    ("prost-mixed", "one-worker", "count-distinct"): ("efe5fdaf854f179e40407f4c3782a779f792f715f0ea1f6b405f567451f3e774", 1, 3, 72),
    ("prost-mixed", "one-worker", "group-count-distinct"): ("0d8811f5c7731fa028874bf76b3d9e1c4c08414ef5148e2265bda78ae90da3ab", 28, 28, 672),
    ("prost-vp", "default", "group-by-subject"): ("dc97722bd482bfee7e4dea85d84012de98ea72fc35e9c591dd5d1eb6147b2c56", 28, 28, 672),
    ("prost-vp", "default", "group-by-object"): ("600acfebc5d50b874435969577bed62973172bbaf5bb24ebd988d7f0139698f8", 25, 116, 2784),
    ("prost-vp", "default", "group-by-join"): ("8c9a6aac45dfadcf0de3f5d7070a4018c189f70a016bfbea39693e9ff477494b", 25, 238, 5712),
    ("prost-vp", "default", "count-all"): ("76ffdc19c73a54b64e137a78c3163ce765c3c114bf6e6aee8aa891acf9d3b470", 1, 16, 384),
    ("prost-vp", "default", "count-empty"): ("76971b4b0d80ae7394dcf7006de0a2c9c29ad9ec283b36c5725d2de18f05791c", 1, 0, 0),
    ("prost-vp", "default", "count-distinct"): ("efe5fdaf854f179e40407f4c3782a779f792f715f0ea1f6b405f567451f3e774", 1, 16, 384),
    ("prost-vp", "default", "group-count-distinct"): ("0d8811f5c7731fa028874bf76b3d9e1c4c08414ef5148e2265bda78ae90da3ab", 28, 28, 672),
    ("prost-vp", "one-worker", "group-by-subject"): ("dc97722bd482bfee7e4dea85d84012de98ea72fc35e9c591dd5d1eb6147b2c56", 28, 28, 672),
    ("prost-vp", "one-worker", "group-by-object"): ("600acfebc5d50b874435969577bed62973172bbaf5bb24ebd988d7f0139698f8", 25, 56, 1344),
    ("prost-vp", "one-worker", "group-by-join"): ("8c9a6aac45dfadcf0de3f5d7070a4018c189f70a016bfbea39693e9ff477494b", 25, 71, 1704),
    ("prost-vp", "one-worker", "count-all"): ("76ffdc19c73a54b64e137a78c3163ce765c3c114bf6e6aee8aa891acf9d3b470", 1, 3, 72),
    ("prost-vp", "one-worker", "count-empty"): ("76971b4b0d80ae7394dcf7006de0a2c9c29ad9ec283b36c5725d2de18f05791c", 1, 0, 0),
    ("prost-vp", "one-worker", "count-distinct"): ("efe5fdaf854f179e40407f4c3782a779f792f715f0ea1f6b405f567451f3e774", 1, 3, 72),
    ("prost-vp", "one-worker", "group-count-distinct"): ("0d8811f5c7731fa028874bf76b3d9e1c4c08414ef5148e2265bda78ae90da3ab", 28, 28, 672),
}


@pytest.fixture(scope="module")
def graph():
    return generate_watdiv(scale=30).graph


def observe(system_name: str, config: ClusterConfig, graph, monkeypatch) -> dict:
    # Term IDs drive hash placement and group order: start from an empty
    # dictionary without clearing the shared one.
    monkeypatch.setattr(dictionary_module, "_DEFAULT", TermDictionary())
    system = make_system(system_name, cluster_config=config)
    system.load(graph)
    observed = {}
    for name, text in QUERIES.items():
        result = system.sparql(text)
        rows = [tuple(map(str, row)) for row in result.rows]
        metrics = result.report.engine_report.metrics
        observed[name] = (
            hashlib.sha256(repr(rows).encode("utf-8")).hexdigest(),
            len(rows),
            metrics.shuffle_rows,
            metrics.shuffle_bytes,
        )
    return observed


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("system_name", SYSTEMS)
def test_aggregate_matches_pin(system_name, config_name, graph, monkeypatch):
    observed = observe(system_name, CONFIGS[config_name], graph, monkeypatch)
    expected = {
        name: PIN[(system_name, config_name, name)] for name in QUERIES
    }
    assert observed == expected
