"""Graph statistics used for join ordering.

The paper (§3.3) relies on two statistics collected during loading, "simple
but effective in practice": the total number of triples per predicate and the
number of distinct subjects per predicate. Both are read off the graph's
predicate index.

As the extended statistics from the paper's future-work section (§5), this
module also implements *characteristic sets* (Neumann & Moerkotte): the count
of subjects per exact predicate-set, which gives much sharper cardinality
estimates for star-shaped sub-queries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .graph import Graph
from .terms import IRI
from ..errors import ValidationError


@dataclass(frozen=True)
class PredicateStatistics:
    """Per-predicate statistics collected at load time.

    Attributes:
        triple_count: total number of triples using the predicate.
        distinct_subjects: number of distinct subjects using the predicate.
        distinct_objects: number of distinct object values for the predicate.
        is_multivalued: whether any subject carries more than one object value,
            which forces a list-typed Property Table column (paper §3.1).
    """

    triple_count: int
    distinct_subjects: int
    distinct_objects: int
    is_multivalued: bool

    @property
    def objects_per_subject(self) -> float:
        """Average number of object values per subject (>= 1.0)."""
        if self.distinct_subjects == 0:
            return 0.0
        return self.triple_count / self.distinct_subjects


@dataclass
class GraphStatistics:
    """All statistics the translators consume, keyed by predicate IRI string.

    Attributes:
        total_triples: size of the graph.
        total_subjects: number of distinct subjects in the graph.
        predicates: per-predicate statistics.
        characteristic_sets: optional extended statistics — a count of subjects
            for each exact frozenset of predicate IRI strings. ``None`` unless
            collected with ``level="extended"``.
    """

    total_triples: int
    total_subjects: int
    predicates: dict[str, PredicateStatistics]
    characteristic_sets: dict[frozenset[str], int] | None = field(default=None)

    def for_predicate(self, predicate: str | IRI) -> PredicateStatistics:
        """Look up statistics for one predicate.

        Unknown predicates (possible when a query mentions a predicate absent
        from the data) get empty statistics, so the translator scores them as
        maximally selective — matching the behaviour of an empty VP table.
        """
        key = predicate.value if isinstance(predicate, IRI) else predicate
        return self.predicates.get(key, _EMPTY_PREDICATE_STATS)

    def star_subject_estimate(self, predicates: set[str]) -> int | None:
        """Estimate how many subjects carry *all* of ``predicates``.

        Uses characteristic sets when available (sum over supersets); returns
        ``None`` when extended statistics were not collected.
        """
        if self.characteristic_sets is None:
            return None
        wanted = frozenset(predicates)
        return sum(
            count
            for char_set, count in self.characteristic_sets.items()
            if wanted <= char_set
        )


_EMPTY_PREDICATE_STATS = PredicateStatistics(
    triple_count=0, distinct_subjects=0, distinct_objects=0, is_multivalued=False
)


def collect_statistics(graph: Graph, level: str = "simple") -> GraphStatistics:
    """Collect graph statistics from the graph's predicate and subject indexes.

    Args:
        graph: the input RDF graph.
        level: ``"simple"`` for the paper's two statistics, ``"extended"`` to
            additionally collect characteristic sets (paper §5 future work).

    Raises:
        ValidationError: for an unknown ``level``.
    """
    if level not in ("simple", "extended"):
        raise ValidationError(f"unknown statistics level: {level!r}")

    # The graph's indexes already group the (distinct) triples, so every
    # number here is a length: nothing is sorted and no pair is counted.
    per_predicate: dict[str, PredicateStatistics] = {}
    for predicate, triples in graph.by_predicate.items():
        distinct_subjects = len({triple.subject for triple in triples})
        per_predicate[predicate.value] = PredicateStatistics(
            triple_count=len(triples),
            distinct_subjects=distinct_subjects,
            distinct_objects=len({triple.object for triple in triples}),
            # Two distinct triples sharing subject and predicate differ in
            # their object: some subject carries more than one value.
            is_multivalued=len(triples) > distinct_subjects,
        )

    characteristic_sets = None
    if level == "extended":
        characteristic_sets = dict(
            Counter(
                frozenset(triple.predicate.value for triple in triples)
                for triples in graph.by_subject.values()
            )
        )

    return GraphStatistics(
        total_triples=len(graph),
        total_subjects=len(graph.by_subject),
        predicates=per_predicate,
        characteristic_sets=characteristic_sets,
    )
