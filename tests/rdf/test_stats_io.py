"""Statistics persistence tests: JSON round trips and HDFS storage.

The package only writes the statistics file; the reader below is the
writer's oracle.
"""

import json

import pytest

from repro.errors import ValidationError
from repro.hdfs import SimulatedHdfs
from repro.rdf import Graph, collect_statistics
from repro.rdf.stats import GraphStatistics, PredicateStatistics
from repro.rdf.stats_io import FORMAT_VERSION, save_statistics, statistics_to_json


def statistics_from_json(text: str) -> GraphStatistics:
    """Parse statistics serialized by ``statistics_to_json``."""
    payload = json.loads(text)
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported statistics format version: {version!r}")
    characteristic_sets = None
    if "characteristic_sets" in payload:
        characteristic_sets = {
            frozenset(entry["predicates"]): entry["count"]
            for entry in payload["characteristic_sets"]
        }
    return GraphStatistics(
        total_triples=payload["total_triples"],
        total_subjects=payload["total_subjects"],
        predicates={
            iri: PredicateStatistics(**entry)
            for iri, entry in payload["predicates"].items()
        },
        characteristic_sets=characteristic_sets,
    )


def load_statistics(hdfs: SimulatedHdfs, path: str) -> GraphStatistics:
    """Read statistics saved with ``save_statistics``."""
    return statistics_from_json(hdfs.read(path).decode("utf-8"))

NT = """
<http://ex/a> <http://ex/likes> <http://ex/x> .
<http://ex/a> <http://ex/likes> <http://ex/y> .
<http://ex/b> <http://ex/name> "B" .
"""


@pytest.fixture
def graph():
    return Graph.from_ntriples(NT)


class TestJsonRoundTrip:
    def test_simple_statistics_round_trip(self, graph):
        stats = collect_statistics(graph)
        again = statistics_from_json(statistics_to_json(stats))
        assert again.total_triples == stats.total_triples
        assert again.total_subjects == stats.total_subjects
        assert again.predicates == stats.predicates
        assert again.characteristic_sets is None

    def test_extended_statistics_round_trip(self, graph):
        stats = collect_statistics(graph, level="extended")
        again = statistics_from_json(statistics_to_json(stats))
        assert again.characteristic_sets == stats.characteristic_sets

    def test_serialization_is_deterministic(self, graph):
        stats = collect_statistics(graph, level="extended")
        assert statistics_to_json(stats) == statistics_to_json(stats)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            statistics_from_json('{"version": 999}')


class TestHdfsStorage:
    def test_save_and_load(self, graph):
        hdfs = SimulatedHdfs(num_datanodes=2)
        stats = collect_statistics(graph)
        save_statistics(hdfs, "/stats.json", stats)
        assert load_statistics(hdfs, "/stats.json").predicates == stats.predicates

    def test_save_overwrites(self, graph):
        hdfs = SimulatedHdfs(num_datanodes=2)
        stats = collect_statistics(graph)
        save_statistics(hdfs, "/stats.json", stats)
        save_statistics(hdfs, "/stats.json", stats)  # no FileAlreadyExists
        assert hdfs.exists("/stats.json")

    def test_prost_loader_persists_statistics(self, graph):
        from repro.core import ProstEngine

        engine = ProstEngine()
        engine.load(graph)
        saved = load_statistics(engine.session.hdfs, "/prost/statistics.json")
        assert saved.total_triples == len(graph)
