"""Persistence for graph statistics.

PRoST computes its statistics once, during loading, and stores them next to
the data, as its loader does. This module serializes
:class:`~repro.rdf.stats.GraphStatistics` to JSON, including the optional
characteristic sets; the engine keeps the in-memory statistics it collected,
so nothing in the package reads the file back.
"""

from __future__ import annotations

import json

from ..hdfs.filesystem import SimulatedHdfs
from .stats import GraphStatistics

#: Current serialization format version.
FORMAT_VERSION = 1


def statistics_to_json(statistics: GraphStatistics) -> str:
    """Serialize statistics to a JSON document."""
    payload = {
        "version": FORMAT_VERSION,
        "total_triples": statistics.total_triples,
        "total_subjects": statistics.total_subjects,
        "predicates": {
            iri: {
                "triple_count": stats.triple_count,
                "distinct_subjects": stats.distinct_subjects,
                "distinct_objects": stats.distinct_objects,
                "is_multivalued": stats.is_multivalued,
            }
            for iri, stats in sorted(statistics.predicates.items())
        },
    }
    if statistics.characteristic_sets is not None:
        payload["characteristic_sets"] = [
            {"predicates": sorted(char_set), "count": count}
            for char_set, count in sorted(
                statistics.characteristic_sets.items(),
                key=lambda item: sorted(item[0]),
            )
        ]
    return json.dumps(payload, indent=2, sort_keys=True)


def save_statistics(hdfs: SimulatedHdfs, path: str, statistics: GraphStatistics) -> None:
    """Write statistics to a (simulated) HDFS path, replacing any old file."""
    hdfs.write(path, statistics_to_json(statistics).encode("utf-8"), overwrite=True)

