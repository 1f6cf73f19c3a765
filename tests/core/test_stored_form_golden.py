"""Golden digest of everything a load leaves behind.

The digests were recorded before the load path was rewritten (term once,
chunk once) and must never move without a PR saying so: they cover every
persisted byte, every dictionary ID, the statistics and the exact column
batches the executor reads.
"""

import hashlib
from dataclasses import asdict

import pytest

from repro.core import ProstEngine
from repro.rdf import dictionary as dictionary_module
from repro.rdf.dictionary import TermDictionary, default_dictionary
from repro.watdiv.generator import generate_watdiv

GOLDEN = {
    "mixed": "5b5aa71555790b88675cc50b8e197fb3a866d640f43f373724cbee35381bf608",
    "vp": "26ace8f412028573f401face6b4c7d6fadb645ef764234cb4dba60fa4548abba",
    "object_pt": "42e0626468dd02c80d1a5c8c6fe91af1b357875caf6f4cf439ccf89cd612847a",
}

CONFIGURATIONS = {
    "mixed": {"strategy": "mixed"},
    "vp": {"strategy": "vp"},
    "object_pt": {"strategy": "mixed", "use_object_property_table": True,
                  "statistics_level": "extended"},
}


def stored_form_digest(engine: ProstEngine) -> str:
    """sha256 over HDFS ``(path, bytes)``, the dictionary's texts, the
    statistics and every catalog table's per-partition column tuples."""
    digest = hashlib.sha256()

    def feed(*parts) -> None:
        for part in parts:
            data = part if isinstance(part, bytes) else repr(part).encode("utf-8")
            digest.update(len(data).to_bytes(8, "little"))
            digest.update(data)

    hdfs = engine.session.hdfs
    for path in sorted(hdfs.list_files("/")):
        feed(path, hdfs.read(path))
    feed(list(default_dictionary().texts))
    statistics = engine.store.statistics
    feed(
        statistics.total_triples,
        statistics.total_subjects,
        [(iri, asdict(stats)) for iri, stats in statistics.predicates.items()],
        None
        if statistics.characteristic_sets is None
        else [(sorted(key), count) for key, count in statistics.characteristic_sets.items()],
    )
    catalog = engine.session.catalog
    for name in catalog.names():
        data = catalog.get(name).data
        feed(name, data.schema.names, data.partitioner)
        batch, bounds = data.concat(), data.compact_bounds()
        for low, high in zip(bounds, bounds[1:]):
            # Each partition as a compacted batch: (length, no selection, cells).
            feed(high - low, None, [tuple(column[low:high]) for column in batch.columns])
    return digest.hexdigest()


@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
def test_load_leaves_the_golden_stored_form(configuration, monkeypatch):
    # IDs are handed out in interning order: start from an empty dictionary
    # without clearing the shared one under the session-scoped engines.
    monkeypatch.setattr(dictionary_module, "_DEFAULT", TermDictionary())
    engine = ProstEngine(**CONFIGURATIONS[configuration])
    engine.load(generate_watdiv(scale=60).graph)
    assert stored_form_digest(engine) == GOLDEN[configuration]
