"""S2RDF baseline (Schätzle et al., PVLDB 2016).

S2RDF extends Vertical Partitioning with **ExtVP**: precomputed semi-join
reductions. For every ordered predicate pair (p1, p2) and join-position pair
XY ∈ {SS, SO, OS, OO}::

    ExtVP_p1|p2^XY = { t ∈ VP_p1 : t.X ∈ π_Y(VP_p2) }

A reduction is *persisted* when its selectivity ``|ExtVP| / |VP_p1|`` is at
most a threshold (0.25 in the S2RDF evaluation); its selectivity is recorded
either way, and an empty reduction proves the whole query empty whenever the
corresponding join occurs (S2RDF's empty-table optimization).

At query time each triple pattern picks the smallest applicable reduction
over its join partners, then patterns are joined smallest-first through
Spark SQL (our engine with the optimizer on). The price is paid at load
time: the pairwise semi-join sweep is why S2RDF's loading takes hours and
its storage is the largest in the paper's Table 1.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

from ..columnar.schema import ColumnSchema, TableSchema
from ..core.encoding import encode_term
from ..core.loader import LoadReport
from ..core.naming import assign_names
from ..engine.cluster import (
    NETWORK_BYTES_PER_SEC,
    SCAN_BYTES_PER_SEC,
    ClusterConfig,
    SimulatedCluster,
)
from ..engine.session import EngineSession
from ..errors import ValidationError
from ..rdf.graph import Graph
from ..rdf.stats import GraphStatistics, collect_statistics
from ..sparql.algebra import SelectQuery, TriplePattern, Variable
from .plans import CompiledBaseline, pattern_cardinality

_VP_SCHEMA = TableSchema([ColumnSchema("s", "string"), ColumnSchema("o", "string")])

#: Join-position pairs, named as (position in p1, position in p2).
POSITION_PAIRS = ("SS", "SO", "OS", "OO")


@dataclass(frozen=True)
class ExtVpEntry:
    """Metadata of one computed reduction."""

    predicate: str
    partner: str
    positions: str
    row_count: int
    selectivity: float
    table_name: str | None  # None when not persisted (selectivity too high)

    @property
    def is_empty(self) -> bool:
        """Whether no triple survives the reduction (which proves every
        query joining the pair this way empty)."""
        return self.row_count == 0


class S2Rdf(CompiledBaseline):
    """VP + ExtVP SPARQL processor with precomputed semi-join reductions."""

    name = "S2RDF"

    def __init__(
        self,
        num_workers: int = 9,
        selectivity_threshold: float = 0.25,
        cluster_config: ClusterConfig | None = None,
    ):
        """
        Args:
            selectivity_threshold: persist reductions with selectivity at or
                below this bound (S2RDF's ``TH_sf``; 1.0 persists everything).
        """
        if not 0.0 <= selectivity_threshold <= 1.0:
            raise ValidationError("selectivity_threshold must be within [0, 1]")
        if cluster_config is None:
            cluster_config = ClusterConfig(num_workers=num_workers)
        self.session = EngineSession(SimulatedCluster(cluster_config))
        self.selectivity_threshold = selectivity_threshold
        self.statistics: GraphStatistics | None = None
        self._vp_tables: dict[str, str] = {}
        self._ext: dict[tuple[str, str, str], ExtVpEntry] = {}

    # -- loading -------------------------------------------------------------------

    def load(self, graph: Graph) -> LoadReport:
        """Build VP tables, then sweep all predicate pairs for reductions."""
        started = time.perf_counter()
        self.statistics = collect_statistics(graph)
        predicates = [p.value for p in graph.predicates]
        names = assign_names(predicates)

        rows_by_predicate: dict[str, list[tuple[str, str]]] = {}
        rows_by_subject: dict[str, dict[str, list[tuple[str, str]]]] = {}
        rows_by_object: dict[str, dict[str, list[tuple[str, str]]]] = {}
        for predicate in graph.predicates:
            rows = [
                (encode_term(t.subject), encode_term(t.object))
                for t in graph.triples_with_predicate(predicate)
            ]
            rows_by_predicate[predicate.value] = rows
            by_subject: dict[str, list[tuple[str, str]]] = defaultdict(list)
            by_object: dict[str, list[tuple[str, str]]] = defaultdict(list)
            for row in rows:
                by_subject[row[0]].append(row)
                by_object[row[1]].append(row)
            rows_by_subject[predicate.value] = by_subject
            rows_by_object[predicate.value] = by_object
            table = f"s2_vp_{names[predicate.value]}"
            self.session.register_rows(
                table, _VP_SCHEMA, rows,
                partition_columns=("s",),
                persist_path=f"/s2rdf/vp/{names[predicate.value]}",
            )
            self._vp_tables[predicate.value] = table

        # Pairwise semi-join sweep. The simulated cost charges, per computed
        # reduction, a shuffle of both inputs plus the write of the output —
        # the work the real S2RDF spends its hours of loading on.
        simulated_shuffle_bytes = 0
        simulated_write_bytes = 0
        reductions = 0
        for p1 in predicates:
            for p2 in predicates:
                for positions in POSITION_PAIRS:
                    if p1 == p2 and positions in ("SS", "OO"):
                        continue  # identity reductions are trivially full
                    entry = self._compute_reduction(
                        p1, p2, positions, names,
                        rows_by_predicate, rows_by_subject, rows_by_object,
                    )
                    if entry is None:
                        continue
                    self._ext[(p1, p2, positions)] = entry
                    reductions += 1
                    pair_rows = len(rows_by_predicate[p1]) + len(rows_by_predicate[p2])
                    simulated_shuffle_bytes += pair_rows * 60
                    simulated_write_bytes += entry.row_count * 60

        config = self.session.config
        scale = config.data_scale
        stored = self.session.catalog.total_stored_bytes()
        simulated_sec = (
            scale * stored / (SCAN_BYTES_PER_SEC * config.num_workers)
            + scale * 2 * simulated_shuffle_bytes
            / (NETWORK_BYTES_PER_SEC * config.num_workers)
            + scale * simulated_write_bytes
            / (SCAN_BYTES_PER_SEC * config.num_workers)
            # Each reduction is one short Spark SQL job (submission +
            # scheduling); S2RDF's loading time is dominated by the sheer
            # number of these jobs.
            + reductions * 1.0
        )
        report = LoadReport(
            system=self.name,
            stored_bytes=stored,
            tables_written=len(self._vp_tables)
            + sum(1 for e in self._ext.values() if e.table_name),
            triples_loaded=len(graph),
            simulated_sec=simulated_sec,
            wall_clock_sec=time.perf_counter() - started,
        )
        self.load_report = report
        return report

    def _compute_reduction(
        self,
        p1: str,
        p2: str,
        positions: str,
        names: dict[str, str],
        rows_by_predicate,
        rows_by_subject,
        rows_by_object,
    ) -> ExtVpEntry | None:
        """Compute ExtVP_p1|p2^positions; persist it when selective enough."""
        p1_index = rows_by_subject[p1] if positions[0] == "S" else rows_by_object[p1]
        p2_index = rows_by_subject[p2] if positions[1] == "S" else rows_by_object[p2]
        total = len(rows_by_predicate[p1])
        if total == 0:
            return None
        common = p1_index.keys() & p2_index.keys()
        count = sum(len(p1_index[value]) for value in common)
        selectivity = count / total
        table_name = None
        if selectivity >= 1.0:
            # No reduction: S2RDF never stores full copies, queries use VP.
            return ExtVpEntry(p1, p2, positions, count, selectivity, None)
        if selectivity <= self.selectivity_threshold and count > 0:
            rows = [row for value in sorted(common) for row in p1_index[value]]
            table_name = f"s2_ext_{positions.lower()}_{names[p1]}__{names[p2]}"
            self.session.register_rows(
                table_name, _VP_SCHEMA, rows,
                partition_columns=("s",),
                persist_path=f"/s2rdf/extvp/{positions.lower()}/{names[p1]}__{names[p2]}",
            )
        return ExtVpEntry(p1, p2, positions, count, selectivity, table_name)

    # -- querying ----------------------------------------------------------------------

    def _table_choice(
        self, pattern: TriplePattern, others: list[TriplePattern]
    ) -> tuple[str | None, float, bool]:
        """Pick the best table for a pattern.

        Returns ``(table_name, estimated_rows, provably_empty)`` where the
        table is the smallest persisted reduction applicable against the
        pattern's join partners, falling back to the plain VP table.
        """
        assert self.statistics is not None
        p1 = pattern.predicate.value
        vp_rows = self.statistics.for_predicate(p1).triple_count
        best_table = self._vp_tables.get(p1)
        best_rows = float(vp_rows)
        if best_table is None:
            return None, 0.0, True
        for other in others:
            if isinstance(other.predicate, Variable):
                continue
            positions = _join_positions(pattern, other)
            if positions is None:
                continue
            entry = self._ext.get((p1, other.predicate.value, positions))
            if entry is None:
                continue
            if entry.is_empty:
                return best_table, 0.0, True
            if entry.table_name is not None and entry.row_count < best_rows:
                best_table = entry.table_name
                best_rows = float(entry.row_count)
        return best_table, best_rows, False

    def _table_choices(
        self, query: SelectQuery
    ) -> list[tuple[TriplePattern, str | None, float, bool]]:
        """``(pattern, table, estimated_rows, provably_empty)`` per pattern.

        The estimate is the chosen table's rows scaled by the pattern's
        constant-slot selectivity (``pattern_cardinality`` over the VP
        table's rows): the number the join order sorts by and EXPLAIN
        prints. No reduction can apply to an unbound predicate: it is
        estimated as the whole dataset and answered from the VP union (no
        table).
        """
        assert self.statistics is not None
        patterns = list(query.patterns)
        choices: list[tuple[TriplePattern, str | None, float, bool]] = []
        for pattern in patterns:
            if isinstance(pattern.predicate, Variable):
                total = float(self.statistics.total_triples)
                choices.append((pattern, None, total, False))
                continue
            others = [p for p in patterns if p is not pattern]
            table, rows, provably_empty = self._table_choice(pattern, others)
            vp_rows = self.statistics.for_predicate(pattern.predicate.value).triple_count
            rows *= pattern_cardinality(self.statistics, pattern) / max(1.0, float(vp_rows))
            choices.append((pattern, table, rows, provably_empty))
        return choices

    def _pattern_order(
        self, query: SelectQuery
    ) -> list[tuple[TriplePattern, str | None]] | None:
        """Each pattern with its chosen table, smallest estimate first;
        ``None`` when an empty reduction proves the result empty."""
        estimated: list[tuple[TriplePattern, str | None, float]] = []
        for pattern, table, rows, provably_empty in self._table_choices(query):
            if provably_empty:
                return None
            estimated.append((pattern, table, rows))
        estimated.sort(key=lambda item: item[2])
        return [(pattern, table) for pattern, table, _ in estimated]

    def _explain_header(self, query: SelectQuery) -> list[str]:
        """Which ExtVP reduction (or plain VP table) answers each pattern."""
        lines = ["== Table Choices =="]
        for pattern, table, rows, provably_empty in self._table_choices(query):
            if isinstance(pattern.predicate, Variable):
                lines.append(f"{pattern}  ->  VP union (unbound predicate)")
            elif provably_empty:
                lines.append(f"{pattern}  ->  empty reduction (query provably empty)")
            else:
                lines.append(f"{pattern}  ->  {table}  est={rows:.2f} rows")
        return lines

    def extvp_entries(self) -> list[ExtVpEntry]:
        """All computed reductions (persisted or not), for inspection."""
        return list(self._ext.values())


def _join_positions(pattern: TriplePattern, other: TriplePattern) -> str | None:
    """The ExtVP position pair under which ``pattern`` joins ``other``.

    Considers variable correlations only (constants do not form joins);
    subject-subject beats other correlations when several exist, matching
    S2RDF's preference for the most selective reduction kind.
    """
    def var_name(slot) -> str | None:
        return slot.name if isinstance(slot, Variable) else None

    s1, o1 = var_name(pattern.subject), var_name(pattern.object)
    s2, o2 = var_name(other.subject), var_name(other.object)
    if s1 is not None and s1 == s2:
        return "SS"
    if s1 is not None and s1 == o2:
        return "SO"
    if o1 is not None and o1 == s2:
        return "OS"
    if o1 is not None and o1 == o2:
        return "OO"
    return None
