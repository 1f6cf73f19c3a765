"""Call-count guard on the executor: each kernel runs once per operator, not
once per partition.

Counts, not seconds: they repeat exactly under any ``PYTHONHASHSEED`` and on
any machine. A relation is one batch whose partitions are row ranges, so a
join builds at most one index, probes once and prices each side with at
most one walk over its cells, whatever the partition count.
"""

import sys
from collections import Counter

from repro.core import ProstEngine
from repro.engine import executor as executor_module
from repro.engine.executor import PhysicalExecutor
from repro.vector import batch as batch_module
from repro.watdiv.generator import generate_watdiv
from repro.watdiv.queries import basic_query_set


def _count_calls(watched: dict, body) -> Counter:
    """Run ``body``; how often each watched code object was entered."""
    counts: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            name = watched.get(frame.f_code)
            if name is not None:
                counts[name] += 1

    sys.setprofile(profiler)
    try:
        body()
    finally:
        sys.setprofile(None)
    return counts


def test_each_join_runs_its_kernels_once():
    dataset = generate_watdiv(scale=120)
    engine = ProstEngine()
    engine.load(dataset.graph)
    assert engine.session.config.default_partitions == 18  # the guard has partitions to see
    watched = {
        PhysicalExecutor._join.__code__: "join",
        PhysicalExecutor._cross_join.__code__: "cross",
        executor_module._probe_batch.__code__: "probe",
        executor_module._build_index.__code__: "build",
        batch_module.row_bytes_vector.__code__: "walk",
        batch_module.estimate_batch_bytes.__code__: "walk",
    }

    def run_templates():
        for query in basic_query_set(dataset):
            engine.sparql(query.text)

    counts = _count_calls(watched, run_templates)
    joins = counts["join"] - counts["cross"]
    assert joins >= 20
    assert counts["probe"] == joins
    assert counts["build"] <= joins
    assert counts["walk"] <= 2 * joins
