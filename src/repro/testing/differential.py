"""Differential runner: oracle vs every engine, with counterexample shrinking.

One *case* is a (graph, query) pair. The runner executes the query on the
:class:`~repro.testing.oracle.BruteForceOracle` and on each system under
test — PRoST (``mixed`` and ``vp``, each direct and behind the serving
layer), S2RDF, SPARQLGX, and Rya — and asserts
**multiset equality** of the solution rows. A failing case is shrunk to a
minimal counterexample by dropping graph triples and query patterns while
the mismatch still reproduces, then reported with its seed, the shrunken
graph, the shrunken query, and a one-command replay line.
"""

from __future__ import annotations

import inspect
import random
from collections import Counter
from dataclasses import dataclass, field, replace

from ..engine.cluster import ClusterConfig
from ..rdf.graph import Graph
from ..rdf.terms import Term, Triple
from ..sparql.algebra import SelectQuery, Variable
from ..sparql.parser import parse_sparql
from .graphgen import GraphGenConfig, generate_graph
from .oracle import BruteForceOracle
from .querygen import QueryGenConfig, generate_query, serialize_query
from ..errors import ValidationError

#: Systems the differential harness covers, in reporting order. The
#: ``-served`` systems are PRoST behind the serving layer
#: (:class:`ServedProstEngine`).
ALL_SYSTEMS = (
    "prost-mixed",
    "prost-vp",
    "prost-mixed-served",
    "prost-vp-served",
    "s2rdf",
    "sparqlgx",
    "rya",
)

#: Systems that execute on the simulated cluster — the ones chaos mode can
#: inject faults into (Rya runs on the key-value store instead).
CLUSTER_SYSTEMS = ("prost-mixed", "prost-vp", "s2rdf", "sparqlgx")

#: Plan-cache capacity of a served system: small enough that a seed's ten
#: queries evict and replan, so the corpus exercises both paths.
SERVED_PLAN_CACHE_SIZE = 2


class ServedProstEngine:
    """A :class:`~repro.core.prost.ProstEngine` behind the serving layer.

    The serve-mode differential check: every query runs twice through one
    :class:`~repro.serve.server.QueryServer` — cold (first call plans and
    populates the plan cache) and cached-plan (second call must hit the
    cache, or at least replan identically after an eviction). The two row
    sets must be multiset-equal *to each other*; the cached-plan rows are
    returned, so the harness's oracle comparison then holds the cached path
    to the brute-force ground truth as well.

    The plan cache holds :data:`SERVED_PLAN_CACHE_SIZE` entries. The result
    cache is deliberately disabled: a result-cache hit would answer the
    second run from the first run's rows, proving nothing.
    """

    def __init__(self, strategy: str, cluster_config: ClusterConfig | None = None):
        from ..core.prost import ProstEngine
        from ..serve import QueryServer

        self.engine = ProstEngine(strategy=strategy, cluster_config=cluster_config)
        self.server = QueryServer(
            self.engine,
            plan_cache_size=SERVED_PLAN_CACHE_SIZE,
            result_cache_size=0,
        )

    @property
    def session(self):
        """The engine's session (chaos mode reads its recovery counters)."""
        return self.engine.session

    def load(self, graph: Graph):
        return self.server.load(graph)

    def sparql(self, query, tracer=None):
        cold = self.server.sparql(query, tracer=tracer)
        cached = self.server.sparql(query)
        if Counter(map(row_key, cached.rows)) != Counter(map(row_key, cold.rows)):
            raise ValidationError(
                "serve mode: cached-plan execution diverged from cold "
                f"execution ({len(cached.rows)} vs {len(cold.rows)} rows)"
            )
        return cached


def chaos_plan_seed(chaos_seed: int, case_seed: int) -> int:
    """The fault-plan seed for one fuzz iteration: a fresh fault plan per
    case seed, all replayable from (chaos base seed, case seed)."""
    return chaos_seed * 1_000_003 + case_seed


def make_system(name: str, cluster_config: ClusterConfig | None = None):
    """A fresh, unloaded engine instance for a system name.

    ``cluster_config`` applies to the systems that run on the simulated
    cluster (chaos mode passes one carrying a ``fault_seed``); Rya runs on
    the key-value store and ignores it.
    """
    from ..baselines import Rya, S2Rdf, SparqlGx
    from ..core.prost import ProstEngine

    if name == "prost-mixed":
        return ProstEngine(strategy="mixed", cluster_config=cluster_config)
    if name == "prost-vp":
        return ProstEngine(strategy="vp", cluster_config=cluster_config)
    if name == "prost-mixed-served":
        return ServedProstEngine("mixed", cluster_config=cluster_config)
    if name == "prost-vp-served":
        return ServedProstEngine("vp", cluster_config=cluster_config)
    if name == "s2rdf":
        return S2Rdf(cluster_config=cluster_config)
    if name == "sparqlgx":
        return SparqlGx(cluster_config=cluster_config)
    if name == "rya":
        return Rya()
    raise ValidationError(f"unknown system {name!r}")


@dataclass
class FaultStats:
    """Recovery and governance counters aggregated across a run's sessions."""

    task_retries: int = 0
    fetch_retries: int = 0
    speculative_tasks: int = 0
    recomputed_tasks: int = 0
    worker_losses: int = 0
    spills: int = 0
    degraded_joins: int = 0
    budget_trips: int = 0
    memory_pressure_events: int = 0

    @property
    def any(self) -> bool:
        return bool(
            self.task_retries
            or self.fetch_retries
            or self.speculative_tasks
            or self.recomputed_tasks
            or self.worker_losses
        )

    @property
    def any_governed(self) -> bool:
        """Whether the governor intervened anywhere in the run."""
        return bool(
            self.spills
            or self.degraded_joins
            or self.budget_trips
            or self.memory_pressure_events
        )

    def add_system(self, system) -> None:
        """Fold in a loaded engine's session-level metrics (if it has any)."""
        session = getattr(system, "session", None)
        if session is None:
            return
        metrics = session.cluster.session_metrics
        self.task_retries += metrics.task_retries
        self.fetch_retries += metrics.fetch_retries
        self.speculative_tasks += metrics.speculative_tasks
        self.recomputed_tasks += metrics.recomputed_tasks
        self.worker_losses += metrics.worker_losses
        self.spills += metrics.spills
        self.degraded_joins += metrics.degraded_joins
        self.budget_trips += metrics.budget_trips
        self.memory_pressure_events += metrics.memory_pressure_events

    def merge(self, other: "FaultStats") -> None:
        self.task_retries += other.task_retries
        self.fetch_retries += other.fetch_retries
        self.speculative_tasks += other.speculative_tasks
        self.recomputed_tasks += other.recomputed_tasks
        self.worker_losses += other.worker_losses
        self.spills += other.spills
        self.degraded_joins += other.degraded_joins
        self.budget_trips += other.budget_trips
        self.memory_pressure_events += other.memory_pressure_events

    def summary(self) -> str:
        text = (
            f"task_retries={self.task_retries} fetch_retries={self.fetch_retries} "
            f"speculative={self.speculative_tasks} recomputed={self.recomputed_tasks} "
            f"worker_losses={self.worker_losses}"
        )
        if self.any_governed:
            text += (
                f" spills={self.spills} degraded_joins={self.degraded_joins} "
                f"budget_trips={self.budget_trips} "
                f"memory_pressure={self.memory_pressure_events}"
            )
        return text


def row_key(row: tuple[Term | None, ...]) -> tuple[str | None, ...]:
    """Hashable, serialization-based identity of one solution row."""
    return tuple(None if term is None else term.n3() for term in row)


@dataclass
class DifferentialMismatch:
    """One verified disagreement between a system and the oracle.

    ``kind`` is ``"rows"`` (different solutions), ``"error"`` (the system
    raised), or ``"round-trip"`` (serialized SPARQL did not parse back to
    the generated AST — a harness/translator bug, no system involved).
    """

    kind: str
    system: str
    seed: int
    query_index: int
    query_text: str
    graph_ntriples: str
    detail: str
    expected: list[tuple] = field(default_factory=list)
    actual: list[tuple] = field(default_factory=list)
    chaos_seed: int | None = None
    #: JSON-ready span trace of the shrunken counterexample's re-run, when
    #: the diverging system supports tracing (``Tracer.to_dict()`` shape).
    trace: dict | None = None

    @property
    def replay_command(self) -> str:
        command = (
            "PYTHONPATH=src python -m repro.cli fuzz "
            f"--seed {self.seed} --iterations 1"
        )
        if self.chaos_seed is not None:
            command += f" --chaos-seed {self.chaos_seed}"
        return command

    def format(self) -> str:
        triple_count = sum(
            1 for line in self.graph_ntriples.splitlines() if line.strip()
        )
        lines = [
            f"differential mismatch [{self.kind}] system={self.system} "
            f"seed={self.seed} query#{self.query_index}",
            f"replay: {self.replay_command}",
            "query:",
            f"  {self.query_text}",
            f"graph ({triple_count} triples):",
        ]
        lines.extend(f"  {line}" for line in self.graph_ntriples.splitlines() if line)
        lines.append(self.detail)
        if self.trace is not None:
            spans = sum(_count_spans(span) for span in self.trace.get("spans", ()))
            lines.append(
                f"trace: {spans} spans recorded (write with fuzz --trace-out)"
            )
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one fuzzing run over a range of seeds."""

    seeds: list[int]
    cases: int
    mismatches: list[DifferentialMismatch]
    fault_stats: FaultStats | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCH(ES)"
        if not self.seeds:
            return f"fuzz: 0 cases over 0 seed(s): {status}"
        text = (
            f"fuzz: {self.cases} cases over {len(self.seeds)} seed(s) "
            f"[{self.seeds[0]}..{self.seeds[-1]}]: {status}"
        )
        if self.fault_stats is not None:
            text += f"\nchaos: {self.fault_stats.summary()}"
        return text


class DifferentialRunner:
    """Generates seeded cases and checks every system against the oracle.

    With ``chaos_seed`` set, every cluster-backed system runs each seed's
    queries under a seeded random :class:`~repro.engine.faults.FaultPlan`
    (a fresh plan per case seed, derived via :func:`chaos_plan_seed`). The
    oracle is fault-free, so multiset equality doubles as the recovery
    correctness bar: injected faults must never change a result row.
    """

    def __init__(
        self,
        systems: tuple[str, ...] = ALL_SYSTEMS,
        query_config: QueryGenConfig | None = None,
        queries_per_graph: int = 10,
        shrink: bool = True,
        chaos_seed: int | None = None,
        memory_budget_bytes: int | None = None,
        query_timeout_sec: float | None = None,
    ):
        self.systems = systems
        self.query_config = query_config or QueryGenConfig()
        self.queries_per_graph = queries_per_graph
        self.shrink = shrink
        self.chaos_seed = chaos_seed
        self.memory_budget_bytes = memory_budget_bytes
        self.query_timeout_sec = query_timeout_sec

    def _cluster_config(self, seed: int) -> ClusterConfig | None:
        governed = (
            self.memory_budget_bytes is not None
            or self.query_timeout_sec is not None
        )
        if self.chaos_seed is None and not governed:
            return None
        fault_seed = (
            chaos_plan_seed(self.chaos_seed, seed)
            if self.chaos_seed is not None
            else None
        )
        return ClusterConfig(
            fault_seed=fault_seed,
            memory_budget_bytes=self.memory_budget_bytes,
            query_timeout_sec=self.query_timeout_sec,
        )

    # -- seeded case generation ----------------------------------------------

    def generate_case(self, seed: int) -> tuple[Graph, list[SelectQuery]]:
        """The (graph, queries) pair a seed denotes — shared by pytest, the
        CLI, and failure replay, so a printed seed is always reproducible."""
        rng = random.Random(seed)
        graph = generate_graph(_vary_graph_config(rng), rng)
        queries = [
            generate_query(graph, self.query_config, rng)
            for _ in range(self.queries_per_graph)
        ]
        return graph, queries

    # -- checking -------------------------------------------------------------

    def run_seed(self, seed: int) -> list[DifferentialMismatch]:
        """Check every query of one seed on every system; loaded engines are
        reused across the seed's queries (loading dominates the runtime)."""
        mismatches, _ = self.run_seed_with_stats(seed)
        return mismatches

    def run_seed_with_stats(
        self, seed: int
    ) -> tuple[list[DifferentialMismatch], FaultStats]:
        """Like :meth:`run_seed`, also aggregating the recovery counters the
        engines' sessions accumulated (all zero outside chaos mode)."""
        graph, queries = self.generate_case(seed)
        oracle = BruteForceOracle(graph)
        graph_nt = graph.to_ntriples()
        config = self._cluster_config(seed)

        mismatches: list[DifferentialMismatch] = []
        stats = FaultStats()
        loaded = {}
        for name in self.systems:
            try:
                system = make_system(name, cluster_config=config)
                system.load(graph)
                loaded[name] = system
            except Exception as error:  # noqa: BLE001 — report, don't crash
                mismatches.append(
                    DifferentialMismatch(
                        kind="error",
                        system=name,
                        seed=seed,
                        query_index=-1,
                        query_text="(load)",
                        graph_ntriples=graph_nt,
                        detail=f"load failed: {type(error).__name__}: {error}",
                        chaos_seed=self.chaos_seed,
                    )
                )

        for index, query in enumerate(queries):
            text = serialize_query(query)
            parsed = parse_sparql(text)
            if parsed != query:
                mismatches.append(
                    DifferentialMismatch(
                        kind="round-trip",
                        system="parser",
                        seed=seed,
                        query_index=index,
                        query_text=text,
                        graph_ntriples=graph_nt,
                        detail=f"parsed AST differs from generated AST:\n"
                        f"  generated: {query}\n  parsed:    {parsed}",
                        chaos_seed=self.chaos_seed,
                    )
                )
                continue
            expected = oracle.evaluate(query)
            for name, system in loaded.items():
                mismatch = self._check_one(
                    name, system, graph, query, expected, seed, index, text,
                    graph_nt, config,
                )
                if mismatch is not None:
                    mismatches.append(mismatch)
        for system in loaded.values():
            stats.add_system(system)
        return mismatches, stats

    def _check_one(
        self, name, system, graph, query, expected, seed, index, text, graph_nt,
        config,
    ) -> DifferentialMismatch | None:
        try:
            actual = system.sparql(query).rows
        except Exception as error:  # noqa: BLE001 — an engine crash is a finding
            shrunk_graph, shrunk_query = self._shrink(graph, query, name, config)
            return DifferentialMismatch(
                kind="error",
                system=name,
                seed=seed,
                query_index=index,
                query_text=serialize_query(shrunk_query),
                graph_ntriples=shrunk_graph.to_ntriples(),
                detail=f"{type(error).__name__}: {error}",
                chaos_seed=self.chaos_seed,
            )
        if Counter(map(row_key, actual)) == Counter(map(row_key, expected)):
            return None
        shrunk_graph, shrunk_query = self._shrink(graph, query, name, config)
        shrunk_expected = BruteForceOracle(shrunk_graph).evaluate(shrunk_query)
        trace = None
        try:
            fresh = make_system(name, cluster_config=config)
            fresh.load(shrunk_graph)
            # Record a span trace of the diverging run when the system can:
            # the per-operator row counts localize where results went wrong.
            if "tracer" in inspect.signature(fresh.sparql).parameters:
                from ..obs.tracer import Tracer

                tracer = Tracer()
                shrunk_actual = fresh.sparql(shrunk_query, tracer=tracer).rows
                trace = tracer.to_dict()
            else:
                shrunk_actual = fresh.sparql(shrunk_query).rows
        except Exception as error:  # noqa: BLE001
            shrunk_actual = []
            detail_suffix = f" (shrunken run raised {type(error).__name__}: {error})"
        else:
            detail_suffix = ""
        want = Counter(map(row_key, shrunk_expected))
        got = Counter(map(row_key, shrunk_actual))
        missing = list((want - got).elements())
        unexpected = list((got - want).elements())
        return DifferentialMismatch(
            kind="rows",
            system=name,
            seed=seed,
            query_index=index,
            query_text=serialize_query(shrunk_query),
            graph_ntriples=shrunk_graph.to_ntriples(),
            detail=(
                f"oracle: {len(shrunk_expected)} rows, {name}: "
                f"{len(shrunk_actual)} rows; missing from system: "
                f"{missing[:5]}; unexpected in system: {unexpected[:5]}"
                + detail_suffix
            ),
            expected=shrunk_expected,
            actual=shrunk_actual,
            chaos_seed=self.chaos_seed,
            trace=trace,
        )

    # -- shrinking -------------------------------------------------------------

    def _shrink(
        self,
        graph: Graph,
        query: SelectQuery,
        system_name: str,
        config: ClusterConfig | None = None,
    ) -> tuple[Graph, SelectQuery]:
        """Minimal (graph, query) still reproducing the mismatch."""
        if not self.shrink:
            return graph, query
        triples = list(graph)
        triples = _shrink_triples(triples, query, system_name, config)
        query = _shrink_query(triples, query, system_name, config)
        triples = _shrink_triples(triples, query, system_name, config)
        return Graph(triples), query


def _still_fails(
    triples: list[Triple],
    query: SelectQuery,
    system_name: str,
    config: ClusterConfig | None = None,
) -> bool:
    """Whether the case still mismatches (different rows, or a crash)."""
    graph = Graph(triples)
    try:
        expected = BruteForceOracle(graph).evaluate(query)
    except Exception:  # noqa: BLE001 — an invalid reduction, not a failure
        return False
    try:
        system = make_system(system_name, cluster_config=config)
        system.load(graph)
        actual = system.sparql(query).rows
    except Exception:  # noqa: BLE001 — crashes reproduce the finding
        return True
    return Counter(map(row_key, actual)) != Counter(map(row_key, expected))


def _shrink_triples(
    triples: list[Triple],
    query: SelectQuery,
    system_name: str,
    config: ClusterConfig | None = None,
) -> list[Triple]:
    """Delta-debugging-style removal: big chunks first, then single triples."""
    improved = True
    while improved:
        improved = False
        chunk = max(1, len(triples) // 2)
        while chunk >= 1:
            index = 0
            while index < len(triples):
                candidate = triples[:index] + triples[index + chunk :]
                if candidate and _still_fails(candidate, query, system_name, config):
                    triples = candidate
                    improved = True
                else:
                    index += chunk
            chunk //= 2
    return triples


def _shrink_query(
    triples: list[Triple],
    query: SelectQuery,
    system_name: str,
    config: ClusterConfig | None = None,
) -> SelectQuery:
    """Drop patterns, filters, and modifiers while the mismatch reproduces."""
    improved = True
    while improved:
        improved = False
        for index in range(len(query.patterns)):
            if len(query.patterns) <= 1:
                break
            candidate = _drop_pattern(query, index)
            if candidate is not None and _still_fails(
                triples, candidate, system_name, config
            ):
                query = candidate
                improved = True
                break
        if improved:
            continue
        for index in range(len(query.filters)):
            candidate = replace(
                query,
                filters=query.filters[:index] + query.filters[index + 1 :],
            )
            if _still_fails(triples, candidate, system_name, config):
                query = candidate
                improved = True
                break
        if improved:
            continue
        for candidate in _modifier_reductions(query):
            if _still_fails(triples, candidate, system_name, config):
                query = candidate
                improved = True
                break
    return query


def _drop_pattern(query: SelectQuery, index: int) -> SelectQuery | None:
    remaining = query.patterns[:index] + query.patterns[index + 1 :]
    kept_variables = {
        slot.name
        for pattern in remaining
        for slot in (pattern.subject, pattern.predicate, pattern.object)
        if isinstance(slot, Variable)
    }
    if not kept_variables:
        return None  # SELECT needs at least one variable to project
    projection = tuple(v for v in query.projection if v.name in kept_variables)
    if not projection:
        projection = (Variable(sorted(kept_variables)[0]),)
    filters = tuple(
        f
        for f in query.filters
        if all(v.name in kept_variables for v in f.variables)
    )
    return replace(query, patterns=remaining, variables=projection, filters=filters)


def _modifier_reductions(query: SelectQuery):
    if query.distinct:
        yield replace(query, distinct=False)
    if query.limit is not None:
        yield replace(query, limit=None, offset=None)
    if query.offset is not None:
        yield replace(query, offset=None)


def _count_spans(span_dict: dict) -> int:
    """Number of spans in one serialized span subtree."""
    return 1 + sum(_count_spans(child) for child in span_dict.get("children", ()))


# -- top-level fuzzing loop ----------------------------------------------------


def _vary_graph_config(rng: random.Random) -> GraphGenConfig:
    """Per-seed diversity: each seed fuzzes a differently-shaped graph."""
    return GraphGenConfig(
        num_triples=rng.randint(8, 50),
        num_entities=rng.randint(3, 12),
        num_predicates=rng.randint(2, 8),
        multi_valued_density=rng.choice((0.0, 0.15, 0.3, 0.5)),
        literal_ratio=rng.choice((0.1, 0.3, 0.5)),
    )


def run_fuzz(
    base_seed: int = 0,
    iterations: int = 20,
    queries_per_graph: int = 10,
    systems: tuple[str, ...] = ALL_SYSTEMS,
    shrink: bool = True,
    stop_on_first: bool = False,
    progress=None,
    chaos_seed: int | None = None,
    memory_budget_bytes: int | None = None,
    query_timeout_sec: float | None = None,
) -> FuzzReport:
    """Fuzz ``iterations`` consecutive seeds starting at ``base_seed``.

    Args:
        progress: optional callback ``(seed, mismatches_so_far)`` invoked
            after each seed (the CLI uses it for live output).
        chaos_seed: run every cluster-backed system under a seeded random
            fault plan per iteration (``None`` disables chaos mode). The
            report's ``fault_stats`` then carries the recovery counters.
        memory_budget_bytes: per-query memory budget for every
            cluster-backed system — spilled and degraded executions must
            still match the (ungoverned) oracle.
        query_timeout_sec: per-query deadline for every cluster-backed
            system.
    """
    runner = DifferentialRunner(
        systems=systems,
        queries_per_graph=queries_per_graph,
        shrink=shrink,
        chaos_seed=chaos_seed,
        memory_budget_bytes=memory_budget_bytes,
        query_timeout_sec=query_timeout_sec,
    )
    seeds: list[int] = []
    mismatches: list[DifferentialMismatch] = []
    stats = FaultStats()
    cases = 0
    for offset in range(iterations):
        seed = base_seed + offset
        seeds.append(seed)
        seed_mismatches, seed_stats = runner.run_seed_with_stats(seed)
        mismatches.extend(seed_mismatches)
        stats.merge(seed_stats)
        cases += queries_per_graph
        if progress is not None:
            progress(seed, len(mismatches))
        if mismatches and stop_on_first:
            break
    governed = memory_budget_bytes is not None or query_timeout_sec is not None
    return FuzzReport(
        seeds=seeds,
        cases=cases,
        mismatches=mismatches,
        fault_stats=stats if (chaos_seed is not None or governed) else None,
    )
