"""Pattern cardinality estimates shared by the baseline systems' join
ordering (the per-pattern frames themselves come from
:func:`repro.core.executor.shape_vp_frame`, shared with PRoST's VP nodes).
"""

from __future__ import annotations

from ..rdf.stats import GraphStatistics
from ..sparql.algebra import TriplePattern, Variable


def pattern_cardinality(statistics: GraphStatistics, pattern: TriplePattern) -> float:
    """Estimated matching tuples for one pattern (for join ordering)."""
    if isinstance(pattern.predicate, Variable):
        return float(statistics.total_triples)
    stats = statistics.for_predicate(pattern.predicate.value)
    estimated = float(stats.triple_count)
    if not isinstance(pattern.object, Variable):
        estimated /= max(1, stats.distinct_objects)
    if not isinstance(pattern.subject, Variable):
        estimated /= max(1, stats.distinct_subjects)
    return estimated
