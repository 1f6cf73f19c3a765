"""Golden digest of what execution produces, per (system, cluster config).

One sha256 per case covers, for every query: the engine output's rows in
emission order (cells decoded to their N-Triples text), every
``ExecutionMetrics`` counter (fault events, spill bytes and degraded joins
included) and the ``CostBreakdown``; a query that aborts feeds its
exception type instead. The queries are the twenty WatDiv templates at
scale 120 and the 200 fixed fuzz queries of seeds 0-19 (ten per graph):
``GOLDEN`` digests the templates with seeds 0-9, ``GOLDEN_WIDE`` seeds
10-19 on their own, so each digest stays as it was recorded.

The configs reach the paths perfbench never runs: ``no-broadcast`` makes
every join shuffle or colocate, ``faults`` runs the seeded fault injector,
``budget`` spills and degrades joins under a 1 KiB memory budget.

The digests were recorded before the executor stopped splitting relations
into one batch per partition, and must never move without a change saying
why: row order, counters and simulated seconds are all part of them.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import pytest

from repro.engine import ClusterConfig, EngineSession
from repro.engine.cluster import ExecutionMetrics
from repro.rdf import dictionary as dictionary_module
from repro.rdf.dictionary import TERM_ID_BASE, TermDictionary, default_dictionary
from repro.testing.differential import DifferentialRunner, make_system
from repro.testing.querygen import serialize_query
from repro.watdiv.generator import generate_watdiv
from repro.watdiv.queries import basic_query_set

SYSTEMS = ("prost-mixed", "prost-vp", "s2rdf", "sparqlgx")

CONFIGS = {
    "default": ClusterConfig(),
    "no-broadcast": ClusterConfig(broadcast_threshold_bytes=0),
    "faults": ClusterConfig(fault_seed=7),
    "budget": ClusterConfig(memory_budget_bytes=1024),
}

FUZZ_SEEDS = range(10)
WIDE_FUZZ_SEEDS = range(10, 20)

GOLDEN = {
    "prost-mixed/budget": "c8a7e593443e5a5308639868d49cac458ca82808e0b5e1d62efb7818a20442bf",
    "prost-mixed/default": "205b06f32fe5c220ca93eba23179e5ed1456771d640082b9144e3029a9a0c042",
    "prost-mixed/faults": "e8f7b78f95b329a1c641312901f749d15417cb40e899f73b2e8c0dfd1bf34c0d",
    "prost-mixed/no-broadcast": "9dde878ed02cc0284f23cd56bf25e3889c42e8335a6d1a83c058de02c21a3ebd",
    "prost-vp/budget": "3420efe7f9b7516cd0baff8fe1d0dcab9849aeb0419c0920e7e099db9ded4746",
    "prost-vp/default": "ece3246a7d184ca3e1c72c15ee476e460c30513e41ed85fc393f200672372521",
    "prost-vp/faults": "99b22eeedefa634505175aead458d52d0f8911136d0afccbfe20aacd87e63c4c",
    "prost-vp/no-broadcast": "17abda44ad05d9a3d718e04243128331c6f411165b229a928f417991ea03008a",
    "s2rdf/budget": "8f4c786895051bb398ba4f9285bcb77c2c16eccc2d473a3dd2089916cbc9c5f0",
    "s2rdf/default": "7c2e15e6c85f6f45b960ab7ba1eb095ee3c0ad13a6a4402681409ffe2f49aa08",
    "s2rdf/faults": "0a61f87cbe3cafc0d4bee0383ab132be1747a9142a2dc33e56dee6d02f0c4dbf",
    "s2rdf/no-broadcast": "04247b5a804a5bff1b3888a841e7396b651e615cb7a8cb405151e43aeca3c86d",
    "sparqlgx/budget": "12758dfcaa3fa41c00cd2ced6fe7a7f8372d4ec2bb44fbd40895122e0bfa31fc",
    "sparqlgx/default": "75acdb80a748795a4a54be809fccc4ef08fc15390982143457842e973a05d56c",
    "sparqlgx/faults": "fe7adcb998af56bd11b4fa96d789f1a3977530ff25a95ef3d7b13261f9e791d5",
    "sparqlgx/no-broadcast": "75acdb80a748795a4a54be809fccc4ef08fc15390982143457842e973a05d56c",
}

GOLDEN_WIDE = {
    "prost-mixed/budget": "bd70aa426ab7692427612dcf26c5dafa31b6650dcc2d79abc44cbb381efdb2cf",
    "prost-mixed/default": "788e7624680a8c6c6672cf77c46bc1100fa4ddc882d00e5cd07496966f79e8e2",
    "prost-mixed/faults": "d00adc45fec5ec12414951f580840dff6014ebf396091816c809c55e8a00a5f5",
    "prost-mixed/no-broadcast": "89655bcba43d2288be8245324c5c6ce44b6aae7606950218c998e50045b1beea",
    "prost-vp/budget": "361e522bd3914674cce894e8d2626a46842f3fe1232c4e1693a32097fe5d60f2",
    "prost-vp/default": "c686d741b67da01cc08d0e2ffec5991bc0e2a27e640b7ecddc1afc02299765c7",
    "prost-vp/faults": "557c833ffdb5b6f64f6341312717b8bcd094c5a500dae5db157ac7a3a7ea7829",
    "prost-vp/no-broadcast": "fef426b944f930d9626ee976119b2086b525dd8d6be10c13b97286915e2b8200",
    "s2rdf/budget": "9160b754fe70d851759abfdc72cd3aede7f7fe39dbef08a599f277b8a8db06a5",
    "s2rdf/default": "4d94469f349d0a2b209c2b5572c5be846dd118540002e93c5f49581aa034dcc2",
    "s2rdf/faults": "c78e2b36cc3fd2063e2a4b40da1518ea106f48129d5edb251a6fd86dba4d9ad3",
    "s2rdf/no-broadcast": "1b23879619ebbd5ddd5d4534855d09307add4d9f3f6afd107f652d432a8cdcae",
    "sparqlgx/budget": "dfa6c4b1a62fd96ff70ee366d617c57d2a1d6b0582b9edbc56153eb72ebdf7ba",
    "sparqlgx/default": "380f8ad4edb900ee7ac8afb47e8da734955fb9286c6abdc1c9592419c94b1c6c",
    "sparqlgx/faults": "27601886d5e4f143a2d695f83ac868a08a150c73e98a67fb8cc3bff518465e8e",
    "sparqlgx/no-broadcast": "380f8ad4edb900ee7ac8afb47e8da734955fb9286c6abdc1c9592419c94b1c6c",
}

#: Every counter of ``ExecutionMetrics`` (the injector and governor
#: side-channels are not counters).
METRIC_FIELDS = tuple(spec.name for spec in fields(ExecutionMetrics) if spec.compare)


def fuzz_cases(seeds) -> list:
    """(graph, query texts) per fuzz seed. Graphs hold terms, not IDs, so
    they are shared across the fresh dictionaries of the digest cases."""
    runner = DifferentialRunner(queries_per_graph=10)
    cases = []
    for seed in seeds:
        graph, queries = runner.generate_case(seed)
        cases.append((graph, [serialize_query(query) for query in queries]))
    return cases


@pytest.fixture(scope="module")
def corpus():
    """The WatDiv templates, then the cases of ``FUZZ_SEEDS``."""
    dataset = generate_watdiv(scale=120)
    templates = (dataset.graph, [query.text for query in basic_query_set(dataset)])
    return [templates, *fuzz_cases(FUZZ_SEEDS)]


@pytest.fixture(scope="module")
def wide_corpus():
    """The cases of ``WIDE_FUZZ_SEEDS``."""
    return fuzz_cases(WIDE_FUZZ_SEEDS)


def _cell_text(cell):
    if type(cell) is int and cell >= TERM_ID_BASE:
        return default_dictionary().text_of(cell)
    if isinstance(cell, list):
        return [_cell_text(element) for element in cell]
    return repr(cell)


def execution_digest(system_name: str, config: ClusterConfig, corpus, monkeypatch) -> str:
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            data = repr(part).encode("utf-8")
            digest.update(len(data).to_bytes(8, "little"))
            digest.update(data)

    executions: list = []
    real_execute = EngineSession.execute

    def recording_execute(self, plan, run_optimizer=True, tracer=None):
        result, report = real_execute(self, plan, run_optimizer, tracer)
        executions.append((result, report))
        return result, report

    monkeypatch.setattr(EngineSession, "execute", recording_execute)
    for graph, texts in corpus:
        system = make_system(system_name, cluster_config=config)
        system.load(graph)
        for text in texts:
            executions.clear()
            feed(text)
            try:
                system.sparql(text)
            except Exception as error:  # noqa: BLE001 — the abort is the output
                feed("aborted", type(error).__name__)
            for result, report in executions:
                feed([tuple(map(_cell_text, row)) for row in result.all_rows()])
                metrics = report.metrics
                feed([(name, getattr(metrics, name)) for name in METRIC_FIELDS])
                feed(report.cost)
    return digest.hexdigest()


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("system_name", SYSTEMS)
def test_execution_matches_golden(system_name, config_name, corpus, monkeypatch):
    # Term IDs drive hash placement, so start from an empty dictionary
    # without clearing the shared one under session-scoped engines.
    monkeypatch.setattr(dictionary_module, "_DEFAULT", TermDictionary())
    digest = execution_digest(system_name, CONFIGS[config_name], corpus, monkeypatch)
    assert digest == GOLDEN.get(f"{system_name}/{config_name}"), digest


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("system_name", SYSTEMS)
def test_wide_fuzz_matches_golden(system_name, config_name, wide_corpus, monkeypatch):
    monkeypatch.setattr(dictionary_module, "_DEFAULT", TermDictionary())
    digest = execution_digest(system_name, CONFIGS[config_name], wide_corpus, monkeypatch)
    assert digest == GOLDEN_WIDE.get(f"{system_name}/{config_name}"), digest
