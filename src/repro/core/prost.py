"""The PRoST engine facade: load once, query with SPARQL.

This is the package's primary public API::

    engine = ProstEngine(num_workers=9)
    engine.load(graph)
    results = engine.sparql("SELECT ?s WHERE { ?s <...> ?o }")

``strategy="mixed"`` (default) is the paper's contribution: same-subject
pattern groups are answered by the Property Table, the rest by Vertical
Partitioning. ``strategy="vp"`` reproduces the VP-only baseline of Figure 2.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import NamedTuple

from ..engine.cluster import ClusterConfig, SimulatedCluster
from ..engine.dataframe import DataFrame
from ..engine.session import EngineSession
from ..governor import Governor, YieldingLock
from ..errors import LoaderError, UnsupportedSparqlError
from ..rdf.graph import Graph
from ..sparql.algebra import SelectQuery
from ..sparql.parser import parse_sparql
from .executor import JoinTreeExecutor, select_tail
from .join_tree import JoinTree
from .loader import LoadReport, ProstStore, load_prost_store
from .results import QueryExecutionReport, ResultSet, finalize_solutions
from .translator import JoinTreeTranslator


class _Plan(NamedTuple):
    """One planned query: the frame (before modifiers), the rendered Join
    Tree(s), and the required and OPTIONAL Join Trees behind the frame."""

    frame: DataFrame
    description: str
    trees: list[JoinTree]
    optional_trees: list[JoinTree]


class ProstEngine:
    """Distributed SPARQL over mixed VP + Property Table partitioning."""

    name = "PRoST"

    def __init__(
        self,
        num_workers: int = 9,
        strategy: str = "mixed",
        statistics_level: str = "simple",
        use_object_property_table: bool = False,
        use_statistics: bool = True,
        cluster_config: ClusterConfig | None = None,
    ):
        """
        Args:
            num_workers: simulated Spark workers (the paper's cluster has 9).
            strategy: ``mixed`` (VP + PT) or ``vp`` (VP only).
            statistics_level: ``simple`` (paper §3.3) or ``extended``
                (characteristic sets, paper §5 future work).
            use_object_property_table: also build and use the object-keyed
                Property Table (paper §5 future work).
            use_statistics: disable the statistics-based join ordering
                (ablation; trees keep query order).
            cluster_config: full cluster override (ignores ``num_workers``).
        """
        if cluster_config is None:
            cluster_config = ClusterConfig(num_workers=num_workers)
        self.session = EngineSession(SimulatedCluster(cluster_config))
        # Admission control: every sparql() entry takes a slot (and, when a
        # budget is set, an aggregate-memory reservation) before executing.
        self.governor = Governor.from_config(cluster_config)
        self.strategy = strategy
        self.statistics_level = statistics_level
        self.use_object_property_table = use_object_property_table
        self.use_statistics = use_statistics
        self.store: ProstStore | None = None
        self._translator: JoinTreeTranslator | None = None
        #: Monotonic load counter: every successful :meth:`load` bumps it,
        #: so anything keyed on :attr:`plan_epoch` (the serve layer's plan
        #: and result caches) is invalidated by a dataset reload.
        self.dataset_version = 0
        # Prepared-statement caches: query text → parsed AST, and query
        # text → (frame, tree description). Parsing and translation are
        # pure functions of the text and the loaded store, so repeated
        # queries reuse the (immutable) objects; load() clears the plans.
        # The serve layer drives this engine from many threads at once, so
        # both dicts (and the store/version swap a reload performs) are
        # guarded — and a plan is published through _cache_plan, which
        # discards it when a reload raced the planning.
        self._cache_lock = YieldingLock()
        self._parse_cache: dict[str, SelectQuery] = {}  # guarded-by: _cache_lock
        self._plan_cache: dict[str, tuple[DataFrame, str]] = {}  # guarded-by: _cache_lock

    # -- loading -----------------------------------------------------------------

    def load(self, graph: Graph, tracer=None) -> LoadReport:
        """Load a graph: build VP tables, the PT, and the statistics.

        Reloading replaces the dataset wholesale: the catalog and the
        simulated HDFS namespace are re-provisioned fresh (table names and
        persisted paths would otherwise collide), while the governor — and
        its admission/tenant accounting — survives across reloads.
        """
        if self.store is not None:
            self.session = EngineSession(SimulatedCluster(self.session.config))
        store = load_prost_store(
            graph,
            session=self.session,
            statistics_level=self.statistics_level,
            include_property_table=self.strategy == "mixed",
            include_object_property_table=self.use_object_property_table,
            tracer=tracer,
        )
        translator = JoinTreeTranslator(
            store.statistics,
            strategy=self.strategy,
            use_object_property_table=self.use_object_property_table,
            use_statistics=self.use_statistics,
        )
        # Publish the new dataset atomically with the plan-cache clear and
        # the version bump: a planner thread that snapshotted the old
        # store can never slip a stale plan in afterwards (_cache_plan
        # re-checks the version before inserting).
        with self._cache_lock:
            self.store = store
            self._translator = translator
            self._plan_cache.clear()
            self.dataset_version += 1
        assert store.load_report is not None
        return store.load_report

    @property
    def plan_epoch(self) -> tuple:
        """Fingerprint of everything a cached plan's validity depends on.

        A verified Join Tree (and the engine plan built from it) is a pure
        function of the loaded dataset, the partitioning strategy, and the
        planner-relevant cluster knobs. The serve layer keys its plan and
        result caches on this tuple: a dataset reload or a re-provisioned
        engine with different partitioning knobs changes the epoch, so
        stale plans can never hit (checked again by the PV401 lineage
        guard before a cached plan executes).
        """
        config = self.session.config
        return (
            self.dataset_version,
            self.strategy,
            self.statistics_level,
            self.use_object_property_table,
            self.use_statistics,
            config.num_workers,
            config.partitions_per_worker,
            config.broadcast_threshold_bytes,
            config.data_scale,
        )

    def _require_store(self) -> ProstStore:
        if self.store is None or self._translator is None:
            raise LoaderError("no graph loaded; call load() first")
        return self.store

    # -- querying ------------------------------------------------------------------

    def translate(self, query: str | SelectQuery) -> JoinTree:
        """Translate a query to its Join Tree without executing it."""
        self._require_store()
        assert self._translator is not None
        parsed = parse_sparql(query) if isinstance(query, str) else query
        return self._translator.translate(parsed)

    def dataframe(self, query: str | SelectQuery) -> tuple[DataFrame, str]:
        """The engine DataFrame computing a query (before modifiers), plus a
        textual rendering of the Join Tree(s) behind it.

        String queries hit the prepared-statement cache: the frame returned
        for a repeated text is the one already translated (and statically
        verified) against the current store.
        """
        store = self._require_store()
        text = query if isinstance(query, str) else None
        # Snapshot the dataset the plan is built against: store, translator,
        # and the version the finished plan will be published under. A
        # concurrent load() swaps all three atomically, so this thread plans
        # against one coherent dataset even if a reload lands mid-planning —
        # and _cache_plan then discards the (stale) plan.
        with self._cache_lock:
            translator = self._translator
            store = self.store if self.store is not None else store
            planned_version = self.dataset_version
            cached = self._plan_cache.get(text) if text is not None else None
        if cached is not None:
            return cached
        parsed = parse_sparql(query) if isinstance(query, str) else query
        assert translator is not None
        plan = self._plan(parsed, store, translator)
        # Pre-execution static verification of every plan this engine runs.
        # Imported lazily: analysis depends on this module's neighbors.
        from ..analysis import check_query

        check_query(
            parsed,
            plan.trees,
            plan.optional_trees,
            plan.frame.plan,
            translator=translator,
            catalog=self.session.catalog,
        )
        if text is not None:
            self._cache_plan(text, planned_version, plan.frame, plan.description)
        return plan.frame, plan.description

    def _plan(
        self, parsed: SelectQuery, store, translator: JoinTreeTranslator
    ) -> _Plan:
        """Translate a parsed query against one dataset snapshot and build
        its frame — the single planning step behind :meth:`dataframe` (which
        gates it with ``check_query``) and :meth:`verify` (which collects
        the same checks' diagnostics instead)."""
        trees: list[JoinTree] = []
        optional_trees: list[JoinTree] = []
        if parsed.is_union:
            frame, description = self._union_frame(store, translator, parsed, trees)
        else:
            tree = translator.translate_bgp(parsed.patterns)
            trees.append(tree)
            frame = JoinTreeExecutor(store).build(tree)
            description = tree.describe()
            for group in parsed.optional_groups:
                frame, optional_tree = self._apply_optional(
                    store, translator, frame, group
                )
                optional_trees.append(optional_tree)
                description += f"\nOPTIONAL:\n{optional_tree.describe()}"

        return _Plan(select_tail(frame, parsed), description, trees, optional_trees)

    def _cache_plan(
        self,
        text: str,
        planned_version: int,
        frame: DataFrame,
        description: str,
    ) -> None:
        """Publish a finished plan into the prepared-statement cache.

        The insert is epoch-checked: if a :meth:`load` completed after this
        plan's dataset snapshot was taken, the plan was built against the
        *previous* store and is silently dropped — inserting it would let a
        text-keyed lookup serve stale rows forever.
        """
        with self._cache_lock:
            if self.dataset_version == planned_version:
                self._plan_cache[text] = (frame, description)

    def _union_frame(
        self,
        store,
        translator: JoinTreeTranslator,
        parsed: SelectQuery,
        trees: list[JoinTree],
    ) -> tuple[DataFrame, str]:
        """One frame per UNION branch, null-padded to shared columns."""
        from ..engine.expressions import col, lit

        executor = JoinTreeExecutor(store)
        branch_frames: list[DataFrame] = []
        descriptions: list[str] = []
        all_columns: list[str] = []
        for branch in parsed.union_branches:
            tree = translator.translate_bgp(branch)
            trees.append(tree)
            frame = executor.build(tree)
            branch_frames.append(frame)
            descriptions.append(tree.describe())
            for name in frame.columns:
                if name not in all_columns:
                    all_columns.append(name)
        padded = []
        for frame in branch_frames:
            outputs = [
                (name, col(name) if name in frame.columns else lit(None))
                for name in all_columns
            ]
            padded.append(frame.select(*outputs))
        union = padded[0]
        for frame in padded[1:]:
            union = union.union(frame)
        description = "\nUNION:\n".join(descriptions)
        return union, description

    def _apply_optional(
        self, store, translator: JoinTreeTranslator, frame: DataFrame, group
    ) -> tuple[DataFrame, JoinTree]:
        """Left-join one OPTIONAL group onto the accumulated frame."""
        tree = translator.translate_bgp(group)
        optional_frame = JoinTreeExecutor(store).build(tree)
        shared = sorted(set(frame.columns) & set(optional_frame.columns))
        if not shared:
            raise UnsupportedSparqlError(
                "OPTIONAL groups sharing no variable with the required "
                "pattern are not supported"
            )
        return frame.join(optional_frame, on=shared, how="left"), tree

    def sparql(self, query: str | SelectQuery, tracer=None) -> ResultSet:
        """Execute a SELECT query and return decoded solutions.

        With a ``tracer``, the run records spans for planning, every
        physical operator, and result finalization; the returned report
        carries the query's root span plus a pre-rendered EXPLAIN ANALYZE
        text (when the span tree aligns with the Join Tree).
        """
        if isinstance(query, str):
            with self._cache_lock:
                parsed = self._parse_cache.get(query)
            if parsed is None:
                # Parse outside the lock (a racing thread may parse the same
                # text twice — benign: ASTs are pure functions of the text).
                parsed = parse_sparql(query)
                with self._cache_lock:
                    self._parse_cache[query] = parsed
            text = query
        else:
            parsed = query
            text = None
        return self._execute(parsed, text=text, tracer=tracer)

    def execute_prepared(
        self,
        parsed: SelectQuery,
        frame: DataFrame,
        tree_description: str,
        tracer=None,
        admitted: bool = False,
    ) -> ResultSet:
        """Execute an already-planned query, skipping translate → optimize →
        plan-verify entirely.

        This is the serve layer's plan-cache hit path: ``frame`` and
        ``tree_description`` must be the output of an earlier
        :meth:`dataframe` call for ``parsed`` against the *current* store
        (the server guards that with the engine's :attr:`plan_epoch` and
        the PV401 lineage check). With ``admitted=True`` the engine skips
        its own admission gate — the caller already holds a (tenant-
        labelled) slot on :attr:`governor`, and taking a second slot for
        the same query could deadlock a fully loaded server.
        """
        return self._execute(
            parsed,
            prepared=(frame, tree_description),
            tracer=tracer,
            admitted=admitted,
        )

    def _execute(
        self,
        parsed: SelectQuery,
        text: str | None = None,
        prepared: tuple[DataFrame, str] | None = None,
        tracer=None,
        admitted: bool = False,
    ) -> ResultSet:
        """Shared execution path behind :meth:`sparql` and
        :meth:`execute_prepared` (plan or reuse, execute, finalize)."""
        started = time.perf_counter()
        query_cm = (
            tracer.span("query", engine=self.name)
            if tracer is not None
            else nullcontext()
        )
        admit_cm = nullcontext() if admitted else self.governor.admit()
        with admit_cm, query_cm as query_span:
            plan_cm = tracer.span("plan") if tracer is not None else nullcontext()
            with plan_cm:
                if prepared is not None:
                    frame, tree_description = prepared
                else:
                    # Pass the raw text when we have it so repeated queries
                    # hit the prepared-statement cache.
                    frame, tree_description = self.dataframe(
                        text if text is not None else parsed
                    )
            data, engine_report = frame.collect_data_with_report(tracer=tracer)
            final_cm = (
                tracer.span("finalize") if tracer is not None else nullcontext()
            )
            with final_cm:
                rows = finalize_solutions(parsed, data)
        wall = time.perf_counter() - started
        explain_text = None
        if tracer is not None:
            if query_span is not None:
                query_span.set("rows", len(rows))
            explain_text = (
                f"== Join Tree ==\n"
                f"{self._explain_tree_text(parsed, engine_report.trace)}\n"
                f"== Engine Plan ==\n{engine_report.explain()}"
            )
        report = QueryExecutionReport(
            simulated_sec=engine_report.simulated_sec,
            wall_clock_sec=wall,
            join_tree=tree_description,
            engine_report=engine_report,
            trace=query_span,
            explain_text=explain_text,
        )
        variables = tuple(variable.name for variable in parsed.projection)
        return ResultSet(variables, rows, report)

    def verify(self, query: str | SelectQuery) -> list:
        """Statically verify a query's plans without executing them.

        Returns every violated invariant as a
        :class:`~repro.analysis.diagnostics.Diagnostic` (empty list = the
        plan is good). This is the engine behind ``prost-repro check``; the
        same checks gate every query :meth:`dataframe` plans. Verification
        here collects instead of raising and touches no shared state, so
        queries other callers run meanwhile stay gated.
        """
        from ..analysis import verify_logical_plan, verify_query

        store = self._require_store()
        translator = self._translator
        assert translator is not None
        parsed = parse_sparql(query) if isinstance(query, str) else query
        plan = self._plan(parsed, store, translator)
        diagnostics = verify_query(
            parsed, plan.trees, plan.optional_trees, translator=translator
        )
        diagnostics.extend(
            verify_logical_plan(plan.frame.plan, catalog=self.session.catalog)
        )
        return diagnostics

    def ask(self, query: str | SelectQuery) -> bool:
        """Execute an ASK (or any) query as an existence check."""
        parsed = parse_sparql(query) if isinstance(query, str) else query
        return len(self.sparql(parsed)) > 0

    def _explain_tree_text(self, parsed: SelectQuery, engine_trace=None) -> str:
        """Render the Join Tree(s), runtime-annotated when alignable.

        ``engine_trace`` is the root physical-operator span of a traced run;
        alignment is only attempted for plain BGP queries (OPTIONAL/UNION
        span shapes fall back to estimate-only annotations).
        """
        from ..obs.explain import align_spans, render_join_tree

        store = self._require_store()
        assert self._translator is not None
        statistics = store.statistics
        config = self.session.config
        if parsed.is_union:
            return "\nUNION:\n".join(
                render_join_tree(
                    self._translator.translate_bgp(branch), statistics, config
                )
                for branch in parsed.union_branches
            )
        tree = self._translator.translate_bgp(parsed.patterns)
        runtime = None
        if engine_trace is not None and not parsed.optional_groups:
            runtime = align_spans(tree, engine_trace)
        text = render_join_tree(tree, statistics, config, runtime)
        for group in parsed.optional_groups:
            optional_tree = self._translator.translate_bgp(group)
            text += "\nOPTIONAL:\n" + render_join_tree(
                optional_tree, statistics, config
            )
        return text

    def explain(self, query: str | SelectQuery, analyze: bool = False, tracer=None) -> str:
        """Join tree plus engine plan, as text (EXPLAIN / EXPLAIN ANALYZE).

        Args:
            analyze: execute the query and annotate the tree with actual row
                counts, executed join strategies, shuffled/broadcast bytes,
                and recovery charges.
            tracer: with ``analyze``, record the run into this tracer instead
                of a throwaway one (so callers can also dump the JSON trace).
        """
        parsed = parse_sparql(query) if isinstance(query, str) else query
        if not analyze:
            frame, _ = self.dataframe(parsed)
            return (
                f"== Join Tree ==\n{self._explain_tree_text(parsed)}\n"
                f"== Engine Plan ==\n{frame.explain()}"
            )
        from ..obs.tracer import Tracer

        result = self.sparql(parsed, tracer=tracer if tracer is not None else Tracer())
        text = result.report.explain_text
        assert text is not None
        return text
