"""In-memory RDF graph container.

:class:`Graph` is the hand-off format between the workload generators / parsers
and the store loaders. It deduplicates triples and offers the simple access
paths the loaders need: iteration, grouping by predicate, and grouping by
subject.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path
from types import MappingProxyType

from .ntriples import parse_ntriples_file, parse_ntriples_string, serialize_ntriples
from .terms import IRI, SubjectTerm, Term, Triple, term_sort_key


class _SortKeys(dict):
    """``Term`` → :func:`term_sort_key`, computed on first lookup."""

    def __missing__(self, term: Term) -> tuple[int, str]:
        key = self[term] = term_sort_key(term)
        return key


class Graph:
    """A set of RDF triples with predicate- and subject-grouped views.

    The graph is set-semantic: inserting a duplicate triple is a no-op, which
    matches the behaviour of every store the paper evaluates. Storage is
    dict-backed (insertion-ordered) rather than ``set``-backed so iteration
    order is a pure function of the insertion sequence, never of Python's
    per-process hash randomization — differential tests compare engines
    loaded from the same graph and rely on this.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        # A dict doubles as an insertion-ordered set (keys only, values None);
        # the two indexes list each group's triples in that same order.
        self._triples: dict[Triple, None] = {}
        self._by_predicate: dict[IRI, list[Triple]] = {}
        self._by_subject: dict[SubjectTerm, list[Triple]] = {}
        # A literal's sort key is its n3() text, and the loaders sort every
        # term many times over: one key per distinct term, kept with the graph.
        self._sort_keys = _SortKeys()
        for triple in triples:
            self.add(triple)

    # -- construction ------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert a triple; return ``True`` when it was not already present."""
        triples = self._triples
        before = len(triples)
        triples[triple] = None  # the one hash of the triple; a duplicate changes nothing
        if len(triples) == before:
            return False
        self._by_predicate.setdefault(triple.predicate, []).append(triple)
        self._by_subject.setdefault(triple.subject, []).append(triple)
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; return how many were new."""
        return sum(1 for triple in triples if self.add(triple))

    @classmethod
    def from_ntriples(cls, text: str) -> "Graph":
        """Build a graph from an N-Triples document held in a string."""
        return cls(parse_ntriples_string(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "Graph":
        """Build a graph from an N-Triples file."""
        return cls(parse_ntriples_file(path))

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    def sort_key(self, term: Term) -> tuple[int, str]:
        """:func:`~repro.rdf.terms.term_sort_key` of ``term``, computed once
        per distinct term for the life of the graph."""
        return self._sort_keys[term]

    @property
    def predicates(self) -> list[IRI]:
        """All distinct predicates, sorted for deterministic iteration."""
        return sorted(self._by_predicate, key=lambda p: p.value)

    @property
    def subjects(self) -> list[SubjectTerm]:
        """All distinct subjects, sorted for deterministic iteration."""
        return sorted(self._by_subject, key=self._sort_keys.__getitem__)

    @property
    def by_predicate(self) -> Mapping[IRI, Sequence[Triple]]:
        """Read-only index: predicate → its triples, both in insertion order."""
        return MappingProxyType(self._by_predicate)

    @property
    def by_subject(self) -> Mapping[SubjectTerm, Sequence[Triple]]:
        """Read-only index: subject → its triples, both in insertion order."""
        return MappingProxyType(self._by_subject)

    def triples_with_predicate(self, predicate: IRI) -> list[Triple]:
        """All triples using ``predicate``, in deterministic (subject) order."""
        key = self._sort_keys.__getitem__
        triples = self._by_predicate.get(predicate, ())
        return sorted(triples, key=lambda t: (key(t.subject), key(t.object)))

    def triples_with_subject(self, subject: SubjectTerm) -> list[Triple]:
        """All triples about ``subject``, in deterministic (predicate) order."""
        key = self._sort_keys.__getitem__
        triples = self._by_subject.get(subject, ())
        return sorted(triples, key=lambda t: (t.predicate.value, key(t.object)))

    def objects(self, subject: SubjectTerm, predicate: IRI) -> list[Term]:
        """All object values for a (subject, predicate) pair, sorted."""
        values = [t.object for t in self._by_subject.get(subject, ()) if t.predicate == predicate]
        return sorted(values, key=self._sort_keys.__getitem__)

    def predicate_counts(self) -> dict[IRI, int]:
        """Triple count per predicate."""
        return {pred: len(triples) for pred, triples in self._by_predicate.items()}

    def to_ntriples(self) -> str:
        """Serialize the graph deterministically (sorted) to N-Triples."""
        key = self._sort_keys.__getitem__
        ordered = sorted(
            self._triples,
            key=lambda t: (key(t.subject), t.predicate.value, key(t.object)),
        )
        return serialize_ntriples(ordered)

    def __repr__(self) -> str:
        return f"Graph({len(self._triples)} triples, {len(self._by_predicate)} predicates)"
