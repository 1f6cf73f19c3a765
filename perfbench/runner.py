"""One benchmark run: warm-up, K identical passes, checks, metrics.

Timing discipline (why the numbers repeat): every pass starts from the same
state — cleared term dictionary, fresh engine, collected garbage — so
request *i* meets the same caches in every pass. Scheduler and neighbour
noise only ever adds time, so durations are the minimum over the passes and
latencies are per-request best-of-K; percentiles are then taken across
requests. The collector stays enabled inside timed regions: users pay it,
and allocation is deterministic so collections fall at the same points.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import threading
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.core.prost import ProstEngine
from repro.obs.tracer import Tracer
from repro.rdf.dictionary import default_dictionary
from repro.rdf.graph import Graph
from repro.rdf.reference import ReferenceEvaluator
from repro.serve.normalize import canonicalize, plan_shape
from repro.serve.server import QueryServer
from repro.sparql.parser import parse_sparql

from . import spans
from .inputs import Inputs, make_dataset, set_up
from .spec import POST_RELOAD_WINDOW, PER_LAYER, Profile, Workload

_MASK = (1 << 64) - 1

#: ``ExecutionMetrics`` fields summed over a stream (exact counts).
_ENGINE_COUNTERS = (
    "rows_scanned", "bytes_scanned", "shuffle_bytes", "broadcast_bytes",
    "stages", "vector_batches", "rows_late_materialized", "rows_output",
)

#: Every n-th generated query is checked against the reference evaluator.
_REFERENCE_STRIDE = 10

#: Requests replayed with and without the engine's own tracer attached.
_TRACER_GUARD_REQUESTS = 200


def rows_digest(rows) -> tuple[int, int]:
    """Order-independent digest of decoded rows: count plus summed hashes.

    Row tuples hold value-hashed terms, so equal rows digest equally within
    one process whichever engine, cache or evaluator produced them.
    """
    return len(rows), sum(map(hash, rows)) & _MASK


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def _resident_mb() -> float:
    """Current resident set in MiB (0 where ``/proc`` is unavailable)."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


@dataclass
class PassResult:
    """Everything one pass measured and observed."""

    #: seconds per load of the pass: one, or two with ``serve_mixed``'s reload
    parse_s: list = field(default_factory=list)
    engine_load_s: list = field(default_factory=list)
    rss_delta_mb: float = 0.0
    stream_wall_s: float = 0.0
    stored_bytes: int = 0
    triples: int = 0
    sim_load_s: float = 0.0
    hdfs_logical: int = 0
    hdfs_physical: int = 0
    dictionary_terms: int = 0
    latencies: list = field(default_factory=list)  # seconds; None = failed
    sims: list = field(default_factory=list)
    #: (key, digest) for every answer seen: stream, then direct-engine tail
    observations: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    sweeps_ms: tuple | None = None
    server: dict | None = None

    @property
    def load_s(self) -> float:
        """File to queryable engine, first load of the pass."""
        return self.parse_s[0] + self.engine_load_s[0]

    @property
    def reload_s(self) -> float:
        """The mid-stream reload (0 when the workload has none)."""
        return self.parse_s[1] + self.engine_load_s[1] if len(self.parse_s) > 1 else 0.0


def _span(recorder, name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


def _serve_client(out: PassResult, stream, indexes, call, recorder) -> Counter:
    """Closed-loop client: send, wait, digest the answer, send the next."""
    counters: Counter = Counter()
    for index in indexes:
        request = stream[index]
        if recorder is not None:
            recorder.set_request(index)
        started = time.perf_counter()
        try:
            result = call(request)
        except Exception:  # a failed request is a measurement, not a crash
            out.errors.append(f"request {index}: {traceback.format_exc(limit=4)}")
            continue
        out.latencies[index] = time.perf_counter() - started
        out.observations.append((request.key, rows_digest(result.rows)))
        out.sims[index] = result.report.simulated_sec
        metrics = result.report.engine_report.metrics
        for name in _ENGINE_COUNTERS:
            counters[name] += getattr(metrics, name)
    if recorder is not None:
        recorder.set_request(None)
    return counters


def _sweep(out: PassResult, engine: ProstEngine, queries) -> float:
    """Run (key, text) pairs straight on the engine; wall-clock ms."""
    total = 0.0
    for key, text in queries:
        started = time.perf_counter()
        try:
            result = engine.sparql(text)
        except Exception:
            out.errors.append(f"direct {key}: {traceback.format_exc(limit=4)}")
            continue
        total += time.perf_counter() - started
        out.observations.append((key, rows_digest(result.rows)))
    return total * 1000.0


def _timed_load(out: PassResult, inputs: Inputs, target, recorder):
    """N-Triples file to queryable engine, as ``prost-repro query`` does it:
    ``Graph.from_file`` then ``load``; both parts are timed."""
    started = time.perf_counter()
    with _span(recorder, "rdf.parse_ntriples"):
        graph = Graph.from_file(inputs.path)
    parsed = time.perf_counter()
    report = target.load(graph)
    out.engine_load_s.append(time.perf_counter() - parsed)
    out.parse_s.append(parsed - started)
    return graph, report


def reference_sample(inputs: Inputs) -> list[tuple[str, str]]:
    """(key, text) of every ``_REFERENCE_STRIDE``-th generated request."""
    fresh = [request for request in inputs.stream if request.fresh]
    return [(r.key, r.text) for r in fresh[::_REFERENCE_STRIDE]]


def run_pass(inputs: Inputs, recorder=None) -> PassResult:
    """One pass: fresh engine, timed load, timed stream, untimed tail."""
    name = inputs.workload.name
    stream = inputs.stream
    out = PassResult(
        latencies=[None] * len(stream), sims=[0.0] * len(stream)
    )
    default_dictionary().clear()
    engine = ProstEngine()
    server = QueryServer(engine) if name == "serve_mixed" else None
    target = server if server is not None else engine
    gc.collect()

    resident = _resident_mb()
    # The graph stays referenced for the whole pass, as it does in the CLI.
    graph, report = _timed_load(out, inputs, target, recorder)
    out.rss_delta_mb = _resident_mb() - resident
    out.stored_bytes = report.stored_bytes
    out.triples = report.triples_loaded
    out.sim_load_s = report.simulated_sec

    basic = [(query.name, query.text) for query in inputs.basic]
    if name == "repeat_hot":
        _sweep(out, engine, basic)  # the stream starts with every cache warm
    gc.collect()

    if server is None:
        # One client: the time spent serving is the sum of the latencies
        # (the client's own checking between requests is not the server's).
        out.counters = _serve_client(
            out, stream, range(len(stream)), lambda r: engine.sparql(r.text), recorder
        )
        out.stream_wall_s = sum(
            latency for latency in out.latencies if latency is not None
        )
    else:
        _serve_threads(out, inputs, server, recorder)

    # Untimed tail, straight on the engine: the basic set (twice on
    # bulk_load, whose first sweep is the cold/warm probe) and, behind the
    # server, the sampled fresh queries — so served answers are compared
    # with direct execution.
    if recorder is not None:
        recorder.active = False
    gc.collect()  # both sweeps start from the same collector state
    first = _sweep(out, engine, basic)
    if name == "bulk_load":
        gc.collect()
        out.sweeps_ms = (first, _sweep(out, engine, basic))
    if server is not None:
        _sweep(out, engine, reference_sample(inputs))
        out.server = dict(server.metrics_snapshot())
        out.server["result_cache_evictions"] = server._result_cache.snapshot()["evictions"]
    hdfs = engine.session.hdfs
    out.hdfs_logical = hdfs.logical_size()
    out.hdfs_physical = hdfs.physical_size()
    out.dictionary_terms = len(default_dictionary())
    return out


def client_halves(inputs: Inputs) -> list[tuple[list[int], list[int]]]:
    """Per client, its stream positions before and after the reload."""
    halves = []
    for client in range(inputs.workload.clients):
        share = [i for i, r in enumerate(inputs.stream) if r.client == client]
        halves.append((share[: len(share) // 2], share[len(share) // 2 :]))
    return halves


def _serve_threads(out: PassResult, inputs: Inputs, server, recorder) -> None:
    """``serve_mixed``: one thread per tenant. At its half-way point each
    client waits at a barrier; when all have arrived this (the driver)
    thread reloads the dataset from the same file — epoch bump, both caches
    invalidated — and releases them to refill the caches."""
    stream = inputs.stream
    halves = client_halves(inputs)
    clients = len(halves)
    barrier = threading.Barrier(clients + 1)
    totals: list[Counter] = [Counter() for _ in range(clients)]

    def client(number: int) -> None:
        def call(request):
            return server.sparql(request.text, tenant=f"tenant-{number}")

        before, after = halves[number]
        try:
            totals[number] += _serve_client(out, stream, before, call, recorder)
            barrier.wait(timeout=150)  # everyone is idle: the reload starts
            barrier.wait(timeout=150)  # the reload is done
            totals[number] += _serve_client(out, stream, after, call, recorder)
        except Exception:
            barrier.abort()
            out.errors.append(f"client {number}: {traceback.format_exc(limit=4)}")

    threads = [
        threading.Thread(target=client, args=(number,), name=f"tenant-{number}")
        for number in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        barrier.wait(timeout=150)
        with _span(recorder, "serve.reload"):
            _timed_load(out, inputs, server, recorder)
        barrier.wait(timeout=150)
    except threading.BrokenBarrierError:
        out.errors.append("reload barrier broken")
    for thread in threads:
        thread.join(timeout=170)
        if thread.is_alive():
            out.errors.append(f"{thread.name} did not finish")
    out.stream_wall_s = time.perf_counter() - started - out.reload_s
    out.counters = sum(totals, Counter())


def post_reload_indexes(inputs: Inputs) -> list[int]:
    """Stream positions of the first requests each client sends after the
    reload (``POST_RELOAD_WINDOW`` in all)."""
    halves = client_halves(inputs)
    window = POST_RELOAD_WINDOW // len(halves)
    return [index for _, after in halves for index in after[:window]]


def warm_up(workload: Workload) -> None:
    """Untimed: pay imports, regex compilation and lazy module loads once,
    on a scale-200 dataset, through the engine and the server."""
    inputs = set_up(workload, Profile(scale=200, requests=40), seed=0)
    try:
        default_dictionary().clear()
        engine = ProstEngine()
        engine.load(Graph.from_file(inputs.path))
        server = QueryServer(engine)
        for _ in range(2):
            for query in inputs.basic:
                engine.sparql(query.text)
                server.sparql(query.text)
    finally:
        inputs.path.unlink(missing_ok=True)


def tracer_overhead(inputs: Inputs) -> float:
    """The engine's own tracer on ÷ off over the warm head of the stream
    (minimum of two alternating rounds each)."""
    default_dictionary().clear()
    engine = ProstEngine()
    engine.load(Graph.from_file(inputs.path))
    texts = [request.text for request in inputs.stream[:_TRACER_GUARD_REQUESTS]]
    for query in inputs.basic:
        engine.sparql(query.text)
    best = {False: float("inf"), True: float("inf")}
    for traced in (False, True, False, True):
        gc.collect()
        started = time.perf_counter()
        for text in texts:
            engine.sparql(text, tracer=Tracer() if traced else None)
        best[traced] = min(best[traced], time.perf_counter() - started)
    return best[True] / best[False]


# -- correctness -----------------------------------------------------------------


def check_results(inputs: Inputs, passes: list[PassResult]) -> list[str]:
    """Every wrong answer found, one message each (empty = correct).

    Within the process, all answers to one key — any pass, cache hit or
    miss, served or direct — must digest equally; then the basic set and
    every tenth generated query must match the reference evaluator, which
    reads the regenerated dataset and never the N-Triples file.
    """
    failures: list[str] = []
    expected: dict[str, tuple[int, int]] = {}
    for number, result in enumerate(passes):
        failures.extend(f"pass {number}: {error}" for error in result.errors)
        for key, digest in result.observations:
            if expected.setdefault(key, digest) != digest:
                failures.append(
                    f"pass {number}: {key} answered {digest}, first seen {expected[key]}"
                )
    dataset = make_dataset(inputs.profile.scale, inputs.seed)
    reference = ReferenceEvaluator(dataset.graph)
    checks = [(query.name, query.text) for query in inputs.basic]
    checks += reference_sample(inputs)
    for key, text in checks:
        truth = rows_digest(reference.evaluate(parse_sparql(text)))
        if expected.get(key) != truth:
            failures.append(
                f"{key}: engine answered {expected.get(key)}, reference {truth}"
            )
    return failures


def distinct_shapes(inputs: Inputs) -> int:
    """Distinct canonical plan shapes in the stream (what a shape-keyed
    plan cache would have to hold)."""
    texts = {request.text for request in inputs.stream}
    return len({plan_shape(canonicalize(parse_sparql(text))) for text in texts})


# -- metrics ---------------------------------------------------------------------


def best_latencies(passes: list[PassResult]) -> list[float | None]:
    """Per request, the best latency over the passes (None if any failed)."""
    best = []
    for samples in zip(*(result.latencies for result in passes)):
        best.append(None if None in samples else min(samples))
    return best


def serving_seconds(inputs: Inputs, passes: list[PassResult], best: list) -> float:
    """The floor of the time one pass spends serving its stream.

    With one client that is the sum of the per-request floors (noise only
    adds, request by request). Two clients overlap, so there it is the
    wall clock of the best pass, reload excluded.
    """
    if inputs.workload.clients == 1:
        return sum(x for x in best if x is not None)
    return min(result.stream_wall_s for result in passes)


def percentile_owner(inputs: Inputs, passes: list[PassResult], fraction: float) -> str:
    """Which kind of request holds a percentile: the commonest among the
    requests ranked within 2% of the stream around the cut (one request
    proves little: a first touch or a collection lifts a cheap query into a
    dearer template's range). A kind is a template, or on ``serve_mixed`` —
    where a request costs what its cache state makes it cost, whatever its
    template — ``hot`` or ``fresh``. ``spec.CUT_OWNERS`` lists the answers
    the traffic mix is built for."""
    ranked = sorted(
        (latency, index)
        for index, latency in enumerate(best_latencies(passes))
        if latency is not None
    )
    cut = max(1, math.ceil(fraction * len(ranked))) - 1
    reach = max(1, len(ranked) // 50)
    kinds = Counter()
    for _, index in ranked[max(0, cut - reach) : cut + reach + 1]:
        request = inputs.stream[index]
        if inputs.workload.name == "serve_mixed":
            kinds["fresh" if request.fresh else "hot"] += 1
        else:
            kinds[request.key.partition("#")[0]] += 1
    return kinds.most_common(1)[0][0]


def end_to_end(inputs: Inputs, passes: list[PassResult], setup_s: float) -> dict:
    """The end-to-end metrics of a run, by name."""
    first = passes[0]
    best = best_latencies(passes)
    served = [latency for latency in best if latency is not None]
    return {
        "setup_s": setup_s,
        "load_s": min(result.load_s for result in passes),
        "stored_bytes_per_triple": first.stored_bytes / first.triples,
        "sim_load_s": first.sim_load_s,
        "sim_query_s": sum(first.sims),
        "query_p50_ms": statistics.median(served) * 1000.0,
        "query_p95_ms": percentile(served, 0.95) * 1000.0,
        "queries_per_s": len(inputs.stream)
        / serving_seconds(inputs, passes, best),
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _median_ms(latencies, indexes) -> float:
    picked = [latencies[i] for i in indexes if latencies[i] is not None]
    return statistics.median(picked) * 1000.0 if picked else 0.0


def per_layer(
    inputs: Inputs,
    passes: list[PassResult],
    traced: PassResult,
    recorder: spans.SpanRecorder,
    tracer_ratio: float,
) -> dict:
    """The per-layer metrics: spans and counts from the traced pass, best-
    of-K latencies from the untraced ones."""
    stream = inputs.stream
    duration, own, calls = recorder.totals()
    best = best_latencies(passes)
    values = {metric.name: 0.0 for metric in PER_LAYER}

    values.update({
        "rdf.parse_ntriples_s": duration["rdf.parse_ntriples"],
        "rdf.collect_statistics_s": duration["rdf.collect_statistics"],
        "rdf.dictionary_terms": traced.dictionary_terms,
        "core.loader.vp_build_s": own["core.loader.vp_build"],
        "core.loader.pt_build_s": own["core.loader.pt_build"],
        "columnar.write_table_s": own["columnar.write_table"],
        "columnar.write_table_calls": calls["columnar.write_table"],
        "columnar.encoded_bytes": traced.stored_bytes,
        "hdfs.write_s": duration["hdfs.write"],
        "core.loader.load_self_s": own["core.loader.load"],
        "runtime.load_rss_delta_mb": passes[0].rss_delta_mb,
        "runtime.gc_gen2_collections": recorder.gc_gen2_collections,
        "runtime.gc_pause_s": recorder.gc_pause_s,
        "hdfs.logical_bytes": traced.hdfs_logical,
        "hdfs.physical_bytes": traced.hdfs_physical,
        "sparql.parse_s": duration["sparql.parse"],
        "sparql.parse_calls": calls["sparql.parse"],
        "core.translator.translate_s": duration["core.translator.translate"],
        "core.translator.translate_calls": calls["core.translator.translate"],
        "engine.optimizer.optimize_s": duration["engine.optimizer.optimize"],
        "engine.optimizer.optimize_calls": calls["engine.optimizer.optimize"],
        "analysis.check_query_s": duration["analysis.check_query"],
        "analysis.check_query_calls": calls["analysis.check_query"],
        "core.prost.build_frame_s": own["core.prost.dataframe"],
        "engine.execute_s": own["engine.execute"],
        "core.prost.finalize_s": own["core.prost.sparql"]
        + own["core.prost.execute_prepared"],
        "perfbench.wrapper_overhead_ratio": (traced.load_s + traced.stream_wall_s)
        / min(result.load_s + result.stream_wall_s for result in passes),
        "obs.tracer_overhead_ratio": tracer_ratio,
    })
    planned = {
        request for name, _, _, _, request in recorder.spans
        if name == "core.translator.translate" and request is not None
    }
    values["core.prost.plan_reuse_ratio"] = 1.0 - len(planned) / len(stream)
    for group in "CFLS":
        members = [i for i, r in enumerate(stream) if r.group == group]
        values[f"group.{group}.p50_ms"] = _median_ms(best, members)
    if traced.sweeps_ms is not None:
        first = min(result.sweeps_ms[0] for result in passes)
        second = min(result.sweeps_ms[1] for result in passes)
        values["engine.first_sweep_ms"] = first
        values["engine.second_sweep_ms"] = second
        values["engine.cold_warm_ratio"] = first / second
    for name in _ENGINE_COUNTERS:
        values[f"engine.{name}"] = traced.counters[name]
    values["engine.rows_scanned_per_row_output"] = traced.counters[
        "rows_scanned"
    ] / max(1, traced.counters["rows_output"])
    if traced.server is not None:
        values.update(_serve_layer(inputs, passes, traced, recorder, best, duration))
    return values


def _serve_layer(inputs, passes, traced, recorder, best, duration) -> dict:
    """``serve.*`` / ``governor.*``: counts from ``ServerStats``, per-request
    overhead from the spans of the traced pass."""
    stats = traced.server
    inside: dict[int, float] = {}  # serve.sparql span index -> engine time
    executed: set[int] = set()
    for name, start, end, parent, _ in recorder.spans:
        if name in ("core.prost.dataframe", "core.prost.execute_prepared"):
            inside[parent] = inside.get(parent, 0.0) + end - start
            if name == "core.prost.execute_prepared":
                executed.add(parent)
    overheads = []
    executed_requests = set()
    for index, (name, start, end, _, request) in enumerate(recorder.spans):
        if name == "serve.sparql" and index in executed:
            overheads.append(end - start - inside[index])
            executed_requests.add(request)
    hits = [i for i in range(len(inputs.stream)) if i not in executed_requests]

    def ratio(hit: str, miss: str) -> float:
        lookups = stats[hit] + stats[miss]
        return stats[hit] / lookups if lookups else 0.0

    raw_p95 = [
        percentile([x for x in result.latencies if x is not None], 0.95)
        for result in passes
    ]
    return {
        "serve.normalize.canonicalize_s": duration["serve.normalize.canonicalize"],
        "serve.plan_cache.hit_ratio": ratio(
            "serve.plan_cache_hits", "serve.plan_cache_misses"),
        "serve.plan_cache.evictions": stats["serve.plan_cache_evictions"],
        "serve.result_cache.hit_ratio": ratio(
            "serve.result_cache_hits", "serve.result_cache_misses"),
        "serve.result_cache.evictions": stats["result_cache_evictions"],
        "serve.result_hit_p50_ms": _median_ms(best, hits),
        "serve.overhead_p50_ms": statistics.median(overheads) * 1000.0,
        "governor.admit_s": duration["governor.admit"],
        "governor.admission_rejections": stats["serve.admission_rejections"],
        "serve.reload_s": min(result.reload_s for result in passes),
        "serve.post_reload_p50_ms": _median_ms(best, post_reload_indexes(inputs)),
        "serve.pass_p95_ms": statistics.median(raw_p95) * 1000.0,
    }
