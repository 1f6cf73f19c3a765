"""What the benchmark measures: profile sizes here, names in ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the one place that names the
workloads (and why each exists) and the metrics (unit, direction, bound);
this module reads it and adds only what it cannot hold, the input sizes.
Every later performance or simplicity change is accepted or rejected on
those names, so renaming one is a benchmark change of its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import REPO_ROOT

with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    _DECLARED = json.load(_handle)

#: Seconds of measurement the driver asks for (``--seconds``).
RUN_SECONDS: int = _DECLARED["run_seconds"]

#: Fewest identical passes per run (K). Durations are the minimum over the
#: passes and latencies per-request best-of-K, so K is never lowered to
#: save time.
MIN_PASSES = 5

#: Budget one pass is sold for: a pass of the full profiles takes 2-4 s on
#: the 2-core reference box.
SECONDS_PER_PASS = 3


def passes_for(seconds: int) -> int:
    """K for a ``--seconds`` budget: a longer budget buys more passes."""
    return max(MIN_PASSES, math.ceil(seconds / SECONDS_PER_PASS))


@dataclass(frozen=True)
class Profile:
    """Input sizes of one workload."""

    scale: int  #: WatDiv scale (≈ users; triples ≈ 40 × scale)
    requests: int  #: stream length per pass


@dataclass(frozen=True)
class Workload:
    """One traffic mix and its sizes."""

    name: str
    full: Profile
    smoke: Profile
    clients: int


#: Sizes are the largest that keep 4 + 22 × 4 driver runs inside their
#: 3420-second cap (≈ 30 s per process on the reference box).
WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("bulk_load", Profile(1600, 200), Profile(200, 40), clients=1),
        Workload("adhoc_distinct", Profile(800, 400), Profile(200, 200), clients=1),
        Workload("repeat_hot", Profile(600, 2000), Profile(200, 200), clients=1),
        Workload("serve_mixed", Profile(400, 2000), Profile(200, 300), clients=2),
    )
}
if list(WORKLOADS) != [entry["name"] for entry in _DECLARED["workloads"]]:
    raise SystemExit("perfbench: BENCHMARK.json names other workloads than spec.py")

#: Share of ``serve_mixed`` requests drawn from the hot 20 (the rest are
#: fresh-constant queries under texts no cache has seen). About half of the
#: stream then hits the result cache under an already-parsed text, so the
#: median sits inside that cluster and not on its edge (at 0.6 it sat on
#: the jump from 0.08 ms to 0.23 ms and moved 12% between seeds).
SERVE_HOT_SHARE = 0.7

#: The kind of request the popularity order (``inputs.HOT_RANKS``) puts each
#: latency cut in, as ``runner.percentile_owner`` names it: S1 at 50% and the C3/C2 tail (the
#: two cost the same) at 95%; on ``serve_mixed`` a result-cache hit and an
#: executed fresh query. ``query_p50_ms`` and ``query_p95_ms`` track these
#: requests only — the other templates show in ``queries_per_s``,
#: ``sim_query_s`` and the per-layer ``group.*.p50_ms``. A change that
#: reorders template costs can move a cut onto a boundary between two
#: templates, where it flips between them from seed to seed: ``run`` warns
#: and ``aa`` fails when a cut leaves its set.
CUT_OWNERS = {0.50: ("S1", "hot"), 0.95: ("C3", "C2", "fresh")}

#: Variable-renamed spellings per hot query on ``serve_mixed``.
SERVE_RENAMES = 8

#: Requests after the reload whose latency is ``serve.post_reload_p50_ms``.
POST_RELOAD_WINDOW = 200


@dataclass(frozen=True)
class Metric:
    """One reported number: its unit, direction and (end-to-end) bound."""

    name: str
    unit: str
    better: str
    bound: float | None = None


#: What a user of the system sees. A bound is the share by which a later
#: change may worsen the metric (README.md derives each from the metric's
#: own measured spread).
END_TO_END = tuple(Metric(**entry) for entry in _DECLARED["end_to_end"])

#: Single-layer numbers from the traced pass; README.md names the
#: end-to-end metric each should move. A metric that does not apply to a
#: workload (``serve.*`` outside ``serve_mixed``) reads 0.
PER_LAYER = tuple(Metric(**entry) for entry in _DECLARED["per_layer"])

