"""Set-up: dataset, N-Triples file and request stream, all from the seed.

``--seed`` drives which entity carries which IRI in the dataset and the
order of the stream. What does *not* move with the seed is the shape of each
workload — the structure of the dataset, how often each template is asked
for, which registry positions its constants come from, the hot/fresh split,
where the reload falls — so two seeds resample one workload instead of
defining two.
"""

from __future__ import annotations

import gc
import os
import random
import re
import time
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.rdf.graph import Graph
from repro.rdf.ntriples import write_ntriples_file
from repro.rdf.terms import Triple
from repro.watdiv.generator import WatDivDataset, generate_watdiv
from repro.watdiv.queries import TEMPLATES, BenchmarkQuery, basic_query_set

from . import OUT_DIR
from .spec import SERVE_HOT_SHARE, SERVE_RENAMES, Profile, Workload

#: Template popularity, most popular first: every stream — hot or fresh —
#: asks for its templates in Zipf(1.0) proportions over this order. The
#: order is fixed, not seeded, and chosen from the templates' measured costs
#: so that the 50% and 95% latency cuts fall well inside one template's
#: share of the stream: S1 holds the median (about 31% of the traffic is
#: slower), C3 holds the 95% cut, and C2 — whose cost swings by a third
#: with the generated data — stays under 3%. With equal shares every
#: multiple of 5% is a boundary between two templates, and the percentiles
#: flip between them from seed to seed.
HOT_RANKS = (
    "S1", "C3", "L1", "F1", "F4", "S7", "L2", "F3", "F2", "C2",
    "S3", "C1", "L5", "S4", "F5", "L4", "S2", "L3", "S5", "S6",
)

#: Fresh queries take their constants from registry positions at and after
#: this salt, clear of the basic set's (salts 0-19).
_FRESH_SALT_BASE = 20

#: Generator seed of the dataset's *structure* (who likes, buys, reviews
#: what). At laptop scale the structure's seed-to-seed variance is larger
#: than the regressions the bounds should catch — the cost of C3, whose
#: answer is a product of per-user degrees, swings by ±9% between generator
#: seeds at scale 800 — so it is held fixed and ``--seed`` relabels it.
STRUCTURE_SEED = 7

_VARIABLE = re.compile(r"\?(v\d+)")


def rename_variables(text: str, suffix: str) -> str:
    """An isomorphic spelling of a query: every ``?vN`` gets ``suffix``."""
    return _VARIABLE.sub(lambda match: f"?{match.group(1)}{suffix}", text)


@dataclass(frozen=True)
class Request:
    """One entry of a stream.

    Requests sharing a ``key`` spell the same query (up to variable names)
    and must therefore return the same rows.
    """

    text: str
    key: str
    group: str
    client: int
    fresh: bool


@dataclass
class Inputs:
    """Everything a pass needs; the dataset itself is not kept (it would
    sit in memory beside the engine and blur ``rss_peak_mb``)."""

    workload: Workload
    profile: Profile
    seed: int
    path: Path
    triples: int
    basic: list[BenchmarkQuery]
    stream: list[Request]


def make_dataset(scale: int, seed: int) -> WatDivDataset:
    """The WatDiv dataset of :data:`STRUCTURE_SEED` with its entities
    relabelled by ``seed``.

    Within each class (users, products, countries, ...) a seeded permutation
    decides which entity carries which IRI. Degrees, selectivities and
    answer sizes stay what they were; sort orders, dictionary IDs, hash
    partitions and the encoded bytes — everything that depends on the
    labels — move with the seed. Registry position *i* still names the
    structurally *i*-th (e.g. *i*-th most popular) entity.
    """
    base = generate_watdiv(scale=scale, seed=STRUCTURE_SEED)
    rng = random.Random(f"labels:{seed}")
    relabelled = {}
    registries = {}
    for spec in fields(WatDivDataset):
        if spec.name in ("graph", "scale", "seed"):
            continue
        entities = getattr(base, spec.name)
        labels = list(entities)
        rng.shuffle(labels)
        relabelled.update(zip(entities, labels))
        registries[spec.name] = labels
    graph = Graph(
        Triple(
            relabelled.get(triple.subject, triple.subject),
            triple.predicate,
            relabelled.get(triple.object, triple.object),
        )
        for triple in base.graph
    )
    return WatDivDataset(graph=graph, scale=scale, seed=seed, **registries)


def dataset_path(workload: str, seed: int) -> Path:
    """Where this process writes its N-Triples file (inside the checkout)."""
    return OUT_DIR / f"{workload}-seed{seed}-{os.getpid()}.nt"


def _hot_draws(rng: random.Random, count: int) -> list[str]:
    """``count`` template names in Zipf(1.0) proportions over
    :data:`HOT_RANKS`, in seeded order.

    The shares are apportioned exactly (largest remainder) instead of
    sampled: the seed decides when each template is asked for, not how
    often, so the mix — and with it throughput — is the same under every
    seed.
    """
    weights = [1.0 / rank for rank in range(1, len(HOT_RANKS) + 1)]
    quotas = [count * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(len(quotas)), key=lambda i: quotas[i] - counts[i], reverse=True
    )
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    draws = [name for name, n in zip(HOT_RANKS, counts) for _ in range(n)]
    rng.shuffle(draws)
    return draws


def _fresh_requests(
    dataset: WatDivDataset, rng: random.Random, count: int
) -> list[Request]:
    """``count`` queries whose text never repeats.

    The n-th use of a template takes the n-th run of constants from the
    registries (stratified, not sampled: every seed covers the same
    registry positions, whose popularity is positional). Small registries
    (roles, languages) offer only a handful of constants and two templates
    have no placeholder at all, so every request also gets its own
    variable-name suffix — the engine's caches are keyed on text.
    """
    by_name = {template.name: template for template in TEMPLATES}
    uses: Counter = Counter()
    requests = []
    for index, name in enumerate(_hot_draws(rng, count)):
        template = by_name[name]
        text = template.instantiate(dataset, salt=_FRESH_SALT_BASE + uses[name])
        uses[name] += 1
        requests.append(
            Request(
                text=rename_variables(text, f"n{index}"),
                key=f"{template.name}#{index}",
                group=template.group,
                client=0,
                fresh=True,
            )
        )
    return requests


def build_stream(
    workload: Workload, dataset: WatDivDataset, basic: list[BenchmarkQuery],
    count: int, seed: int,
) -> list[Request]:
    """The request stream of one workload (see README.md for the mixes)."""
    rng = random.Random(f"{workload.name}:{seed}")
    by_name = {query.name: query for query in basic}
    if workload.name in ("bulk_load", "adhoc_distinct"):
        stream = _fresh_requests(dataset, rng, count)
    elif workload.name == "repeat_hot":
        stream = [
            Request(by_name[name].text, name, by_name[name].group, 0, False)
            for name in _hot_draws(rng, count)
        ]
    else:  # serve_mixed: an exact hot/fresh split, shuffled together
        hot_count = round(count * SERVE_HOT_SHARE)
        stream = []
        for name in _hot_draws(rng, hot_count):
            suffix = f"r{rng.randrange(SERVE_RENAMES)}"
            text = rename_variables(by_name[name].text, suffix)
            stream.append(Request(text, name, by_name[name].group, 0, False))
        stream.extend(_fresh_requests(dataset, rng, count - hot_count))
        rng.shuffle(stream)
    # Deal the stream to the clients in turn.
    return [
        replace(request, client=index % workload.clients)
        for index, request in enumerate(stream)
    ]


def set_up(workload: Workload, profile: Profile, seed: int) -> Inputs:
    """Generate the dataset, write its file, build the stream. Idempotent:
    a second call overwrites the file with the same bytes."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    dataset = make_dataset(profile.scale, seed)
    path = dataset_path(workload.name, seed)
    triples = write_ntriples_file(dataset.graph, path)
    basic = basic_query_set(dataset)
    stream = build_stream(workload, dataset, basic, profile.requests, seed)
    return Inputs(workload, profile, seed, path, triples, basic, stream)


def timed_set_up(
    workload: Workload, profile: Profile, seed: int, repeats: int = 3
) -> tuple[Inputs, float]:
    """Set up ``repeats`` times; the minimum is ``setup_s`` (the routine is
    deterministic, so what varies between repeats is the machine)."""
    best = float("inf")
    for _ in range(repeats):
        inputs = None  # the previous copy would be collector work for this one
        gc.collect()
        started = time.perf_counter()
        inputs = set_up(workload, profile, seed)
        best = min(best, time.perf_counter() - started)
    return inputs, best
