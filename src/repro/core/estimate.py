"""Row estimates for Join-Tree nodes and their joins — the planner's one copy.

The translator orders the Join Tree by these numbers (paper §3.3), EXPLAIN
prints them as ``est`` and the plan verifier combines its derived rows with
:func:`join_rows`; none keeps an estimate of its own. Turning rows into bytes
and choosing the side a join broadcasts is the engine's business
(:mod:`repro.engine.cluster`), which never imports this package.
"""

from __future__ import annotations

from typing import TypeVar

from ..rdf.stats import GraphStatistics
from ..rdf.terms import IRI
from ..sparql.algebra import TriplePattern, Variable
from .join_tree import JoinTreeNode, ObjectPtNode, PtNode

Rows = TypeVar("Rows", int, float)


def node_rows(node: JoinTreeNode, statistics: GraphStatistics) -> float:
    """Estimated result rows of ``node``'s own sub-query (children excluded).

    A VP node starts from its predicate's triple count and divides by the
    distinct objects (constant object) and distinct subjects (bound
    subject). A PT node is its star size — characteristic sets when
    collected, else the rarest predicate's distinct subjects — whatever its
    constants: the translator rewards those with priority bonuses instead.
    Unrounded, and blind to constant *values*: only whether a slot is bound
    counts.
    """
    if isinstance(node, (PtNode, ObjectPtNode)):
        return _star_rows(node.patterns, statistics)
    return _pattern_rows(node.patterns[0], statistics)


def join_rows(left: Rows, right: Rows, keyed: bool) -> Rows:
    """Estimated rows of joining two inputs: ``max`` on shared keys, the
    product for a cartesian join (no shared keys)."""
    return max(left, right) if keyed else left * right


def _pattern_rows(pattern: TriplePattern, statistics: GraphStatistics) -> float:
    predicate = pattern.predicate
    if not isinstance(predicate, IRI):
        # An unbound predicate touches every VP table.
        return float(statistics.total_triples)
    stats = statistics.for_predicate(predicate)
    rows = float(stats.triple_count)
    if pattern.has_constant_object:
        # A constant object keeps roughly one object-group of tuples.
        rows /= max(1, stats.distinct_objects)
    if not isinstance(pattern.subject, Variable):
        rows /= max(1, stats.distinct_subjects)
    return rows


def _star_rows(
    patterns: tuple[TriplePattern, ...], statistics: GraphStatistics
) -> float:
    predicates = {
        term.value for term in (p.predicate for p in patterns) if isinstance(term, IRI)
    }
    rows = statistics.star_subject_estimate(predicates)
    if rows is None:
        # Simple statistics: the star's size is bounded by the rarest
        # predicate's distinct subjects (every pattern must match).
        rows = min(statistics.for_predicate(p).distinct_subjects for p in predicates)
    return float(rows)
