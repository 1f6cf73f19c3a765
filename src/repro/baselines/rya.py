"""Rya baseline (Punnoose et al., 2012).

Rya stores whole triples as *keys* in Accumulo, three times over — once per
index permutation SPO, POS, and OSP — so any triple pattern with a bound
prefix becomes a fast sorted-range scan. Query evaluation is index
nested-loop join: patterns are reordered by selectivity, then each partial
binding issues one range scan per remaining pattern.

This reproduces the paper's observations: Rya is extremely fast when a query
touches few intermediate results (point lookups on the right index), and
orders of magnitude slower on join-heavy queries, because every intermediate
binding pays a fresh index scan and there is no distributed join machinery
("it lacks ... the powerful in-memory data processing that make, in
practice, other systems faster").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.encoding import (
    cell_for_text,
    cell_text,
    decode_term,
    encode_term,
    encode_term_text,
)
from ..core.loader import LoadReport
from ..core.results import (
    QueryExecutionReport,
    ResultSet,
    apply_solution_modifiers,
)
from ..errors import LoaderError, UnsupportedSparqlError
from ..kvstore.store import SortedKeyValueStore
from ..rdf.graph import Graph
from ..rdf.reference import evaluate_filter
from ..rdf.stats import GraphStatistics, collect_statistics
from ..sparql.algebra import SelectQuery, TriplePattern, Variable
from ..sparql.parser import parse_sparql
from .plans import pattern_cardinality

#: Separator between the three term components inside an index key.
_SEP = "\x00"

#: The three index permutations: table name → triple-position order.
INDEXES = {
    "spo": (0, 1, 2),
    "pos": (1, 2, 0),
    "osp": (2, 0, 1),
}


@dataclass(frozen=True)
class RyaCostModel:
    """Client-driven scan costs for the simulated Accumulo cluster.

    Attributes:
        seek_sec: round-trip latency of starting one range scan.
        entry_sec: per-entry transfer/deserialization cost.
        parallel_scans: concurrent ranges a batch scanner keeps in flight.
        data_scale: emulation factor (see
            :class:`~repro.engine.cluster.ClusterConfig.data_scale`): seek and
            entry counts measured on the scaled-down dataset are multiplied
            by this factor before costing.
    """

    seek_sec: float = 0.0015
    entry_sec: float = 2e-6
    parallel_scans: int = 8
    data_scale: float = 1.0

    def time_for(self, seeks: int, entries: int) -> float:
        """Simulated seconds for ``seeks`` range-scan starts and
        ``entries`` entries read."""
        return self.data_scale * (
            (seeks * self.seek_sec) / self.parallel_scans + entries * self.entry_sec
        )


class Rya:
    """Triple store over sorted key-value tables with nested-loop joins."""

    name = "Rya"

    def __init__(
        self,
        num_tablet_servers: int = 9,
        cost_model: RyaCostModel | None = None,
    ):
        self.store = SortedKeyValueStore(num_tablet_servers=num_tablet_servers)
        self.cost_model = cost_model or RyaCostModel()
        self.statistics: GraphStatistics | None = None

    # -- loading --------------------------------------------------------------------

    def load(self, graph: Graph) -> LoadReport:
        """Ingest every triple into the three index tables."""
        started = time.perf_counter()
        self.statistics = collect_statistics(graph)
        for table in INDEXES:
            if not self.store.has_table(table):
                self.store.create_table(table)
        for triple in graph:
            # Index keys are lexical: Accumulo's sorted range scans depend on
            # the N-Triples byte order, and key bytes are the size measurement.
            parts = (
                encode_term_text(triple.subject),
                encode_term_text(triple.predicate),
                encode_term_text(triple.object),
            )
            for table, order in INDEXES.items():
                key = _SEP.join(parts[i] for i in order)
                self.store.put(table, key)
        for table in INDEXES:
            self.store.compact(table)
        stored = self.store.stored_bytes()
        # Ingest cost: the batch writer streams 3× the data to the tablet
        # servers, which sort and flush it (one pass each).
        entries = 3 * len(graph)
        scale = self.cost_model.data_scale
        simulated = scale * (entries / 120_000.0 + stored / 200e6)
        report = LoadReport(
            system=self.name,
            stored_bytes=stored,
            tables_written=len(INDEXES),
            triples_loaded=len(graph),
            simulated_sec=simulated,
            wall_clock_sec=time.perf_counter() - started,
        )
        self.load_report = report
        return report

    # -- querying ----------------------------------------------------------------------

    def sparql(self, query: str | SelectQuery) -> ResultSet:
        """Execute a SELECT query with index nested-loop joins."""
        parsed = self._parse(query)
        started = time.perf_counter()
        self.store.metrics.reset()

        if parsed.is_union:
            bindings = []
            for branch in parsed.union_branches:
                bindings.extend(self._evaluate_bgp(list(branch)))
        else:
            bindings = self._evaluate_bgp(list(parsed.patterns))
            for group in parsed.optional_groups:
                bindings = self._apply_optional(list(group), bindings)

        rows = []
        for binding in bindings:
            decoded = {
                name: decode_term(value) for name, value in binding.items()
            }
            if all(evaluate_filter(f, decoded) for f in parsed.filters):
                rows.append(
                    tuple(decoded.get(v.name) for v in parsed.projection)
                )
        if parsed.distinct:
            unique = {}
            for row in rows:
                unique.setdefault(tuple(t.n3() if t else None for t in row), row)
            rows = list(unique.values())
        rows = apply_solution_modifiers(parsed, rows)

        metrics = self.store.metrics
        report = QueryExecutionReport(
            simulated_sec=self.cost_model.time_for(metrics.seeks, metrics.entries_read),
            wall_clock_sec=time.perf_counter() - started,
        )
        return ResultSet(tuple(v.name for v in parsed.projection), rows, report)

    def explain(self, query: str | SelectQuery, analyze: bool = False) -> str:
        """Index-selection EXPLAIN: reordered patterns and chosen indexes.

        Shows Rya's greedy join order and, per pattern, which of the three
        Accumulo-style indexes (SPO/POS/OSP) serves it and how many triple
        positions its scan prefix binds (constants plus variables bound by
        earlier patterns). With ``analyze``, the query executes and a final
        line reports measured index seeks, entries read, and simulated time.
        """
        parsed = self._parse(query)
        if parsed.is_union:
            groups = [
                ("UNION branch", list(branch)) for branch in parsed.union_branches
            ]
        else:
            groups = [("BGP", list(parsed.patterns))]
            groups += [("OPTIONAL", list(g)) for g in parsed.optional_groups]
        lines = ["== Index Plan =="]
        for title, patterns in groups:
            if len(groups) > 1:
                lines.append(f"-- {title} --")
            bound: set[str] = set()
            for step, pattern in enumerate(self._reorder(patterns), start=1):
                slots = [
                    None
                    if isinstance(slot, Variable) and slot.name not in bound
                    else "*"  # constant, or bound by an earlier pattern
                    for slot in (pattern.subject, pattern.predicate, pattern.object)
                ]
                table, prefix_parts = _best_index(slots)
                lines.append(
                    f"{step}. {pattern}  index={table.upper()} "
                    f"prefix={len(prefix_parts)}/3 bound"
                )
                bound |= {v.name for v in pattern.variables}
        if analyze:
            report = self.sparql(parsed).report
            metrics = self.store.metrics
            lines.append(
                f"measured: seeks={metrics.seeks} entries={metrics.entries_read} "
                f"simulated={report.simulated_sec * 1000:.1f}ms"
            )
        return "\n".join(lines)

    def _parse(self, query: str | SelectQuery) -> SelectQuery:
        parsed = parse_sparql(query) if isinstance(query, str) else query
        if self.statistics is None:
            raise LoaderError("no graph loaded; call load() first")
        if parsed.is_aggregate:
            raise UnsupportedSparqlError("the Rya baseline does not evaluate aggregates")
        return parsed

    def _reorder(self, patterns: list[TriplePattern]) -> list[TriplePattern]:
        """Rya's join reordering: greedily pick the pattern with the most
        positions bound (constants plus already-bound variables), breaking
        ties by estimated cardinality."""
        assert self.statistics is not None
        ordered: list[TriplePattern] = []
        bound_variables: set[str] = set()
        remaining = list(patterns)
        while remaining:
            def effective_bound(pattern: TriplePattern) -> int:
                count = 0
                for slot in (pattern.subject, pattern.predicate, pattern.object):
                    if not isinstance(slot, Variable) or slot.name in bound_variables:
                        count += 1
                return count

            best = min(
                remaining,
                key=lambda p: (
                    -effective_bound(p),
                    pattern_cardinality(self.statistics, p),
                ),
            )
            remaining.remove(best)
            ordered.append(best)
            bound_variables |= {v.name for v in best.variables}
        return ordered

    # -- index nested-loop machinery -----------------------------------------------------

    def _evaluate_bgp(self, patterns: list[TriplePattern]) -> list[dict[str, str]]:
        """Match one conjunction with reordered index nested-loop joins."""
        bindings: list[dict[str, str]] = [{}]
        for pattern in self._reorder(patterns):
            bindings = self._extend(pattern, bindings)
            if not bindings:
                break
        return bindings

    def _apply_optional(
        self, patterns: list[TriplePattern], bindings: list[dict[str, str]]
    ) -> list[dict[str, str]]:
        """OPTIONAL (left join): per binding, keep extensions when the group
        matches and the unextended binding otherwise."""
        result: list[dict[str, str]] = []
        for binding in bindings:
            extensions = [binding]
            for pattern in self._reorder(patterns):
                extensions = self._extend(pattern, extensions)
                if not extensions:
                    break
            result.extend(extensions if extensions else [binding])
        return result

    def _extend(
        self, pattern: TriplePattern, bindings: list[dict[str, str]]
    ) -> list[dict[str, str]]:
        """Join current bindings with one pattern via per-binding index scans."""
        extended: list[dict[str, str]] = []
        for binding in bindings:
            slots = []
            for slot in (pattern.subject, pattern.predicate, pattern.object):
                if isinstance(slot, Variable):
                    bound = binding.get(slot.name)
                    slots.append(None if bound is None else cell_text(bound))
                else:
                    slots.append(encode_term_text(slot))
            table, prefix_parts = _best_index(slots)
            prefix = _SEP.join(prefix_parts)
            if prefix:
                prefix += "" if len(prefix_parts) == 3 else _SEP
            order = INDEXES[table]
            for key, _ in self.store.prefix_scan(table, prefix):
                components = key.split(_SEP)
                triple_parts = [""] * 3
                for index_position, triple_position in enumerate(order):
                    triple_parts[triple_position] = components[index_position]
                new_binding = _unify(pattern, triple_parts, binding)
                if new_binding is not None:
                    extended.append(new_binding)
        return extended


def _best_index(slots: list[str | None]) -> tuple[str, list[str]]:
    """The index whose sort order gives the longest bound prefix.

    ``slots`` holds the resolved (encoded) value per triple position, or
    ``None`` when free. Ties resolve in SPO, POS, OSP order.
    """
    best_table = "spo"
    best_prefix: list[str] = []
    for table, order in INDEXES.items():
        prefix: list[str] = []
        for position in order:
            value = slots[position]
            if value is None:
                break
            prefix.append(value)
        if len(prefix) > len(best_prefix):
            best_table = table
            best_prefix = prefix
    return best_table, best_prefix


def _unify(
    pattern: TriplePattern, triple_parts: list[str], binding: dict[str, str]
) -> dict[str, str] | None:
    """Extend a binding with one scanned key, interning components so the
    runtime bindings compare and hash as dictionary IDs."""
    result = dict(binding)
    for slot, value in zip(
        (pattern.subject, pattern.predicate, pattern.object), triple_parts
    ):
        cell = cell_for_text(value)
        if isinstance(slot, Variable):
            existing = result.get(slot.name)
            if existing is None:
                result[slot.name] = cell
            elif existing != cell:
                return None
        elif encode_term(slot) != cell:
            return None
    return result
