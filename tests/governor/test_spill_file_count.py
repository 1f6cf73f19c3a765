"""Spill-file guard: a spilled join writes one bucket set, not one per
partition pair.

Counted, not timed: over the twenty WatDiv templates at scale 120 under a
1 KiB memory budget, every bucket file ``SpillStore.write`` opens is
counted against ``spill_partitions`` (the fanout charged once per spilled
join). One left and one right file per bucket per join is the whole spill;
a bucket set per partition pair would multiply it by the partition count.
"""

import pytest

from repro.engine import ClusterConfig, EngineSession
from repro.governor import SpillStore
from repro.testing.differential import make_system
from repro.watdiv.generator import generate_watdiv
from repro.watdiv.queries import basic_query_set


@pytest.fixture(scope="module")
def dataset():
    return generate_watdiv(scale=120)


@pytest.mark.parametrize("system_name", ("sparqlgx", "s2rdf"))
def test_spilled_joins_write_two_files_per_bucket(system_name, dataset, monkeypatch):
    writes: list[str] = []
    real_write = SpillStore.write

    def counting_write(self, name, columns):
        writes.append(name)
        return real_write(self, name, columns)

    spill_partitions: list[int] = []
    real_execute = EngineSession.execute

    def recording_execute(self, plan, run_optimizer=True, tracer=None):
        result, report = real_execute(self, plan, run_optimizer, tracer)
        spill_partitions.append(report.metrics.spill_partitions)
        return result, report

    monkeypatch.setattr(SpillStore, "write", counting_write)
    monkeypatch.setattr(EngineSession, "execute", recording_execute)
    system = make_system(system_name, cluster_config=ClusterConfig(memory_budget_bytes=1024))
    system.load(dataset.graph)
    for query in basic_query_set(dataset):
        system.sparql(query.text)
    assert sum(spill_partitions) > 0
    assert len(writes) == 2 * sum(spill_partitions)
