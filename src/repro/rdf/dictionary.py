"""Global term dictionary: dense integer IDs for RDF terms.

The paper's real substrate (Spark + Parquet) dictionary-encodes terms, so
joins hash and compare small integers instead of full IRI strings. This
module reproduces that: every distinct N-Triples serialization gets a dense
:class:`TermId` at intern time, runtime tables carry IDs, and rows decode
back to terms only at the emission boundary (see ``core/encoding.py``).

Design points:

- **IDs are plain ints, tagged by range.** Term IDs are ordinary ``int``
  objects offset by :data:`TERM_ID_BASE`, so the decode boundary tells a
  dictionary ID apart from an arithmetic integer produced by a COUNT
  aggregate by *magnitude*, not by type. An ``int`` subclass would work
  too — but CPython garbage-collection-tracks instances of heap types,
  which defeats the collector's tuple-untracking optimization: every row
  tuple holding a subclass instance stays on the GC's scan list, and each
  generational collection then walks the entire loaded dataset. Plain
  ints (like the strings they replace) are atomic to the GC, so row
  tuples fall off the scan list after the first collection and query-time
  allocation stays cheap no matter how much data is loaded.
- **Decode is O(1).** The dictionary memoizes the parsed
  :class:`~repro.rdf.terms.Term` per ID, so emitting a result row is a list
  lookup, not an N-Triples reparse.
- **Storage stays lexical.** Simulated on-disk artifacts (columnar files,
  SPARQLGX text files, Rya index keys) keep the N-Triples strings —
  :func:`storage_cells` converts a column of IDs back at the persistence
  boundary — so storage footprints (Table 1) and scan-cost accounting are those of
  the lexical form.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from itertools import chain

from .ntriples import parse_term
from .terms import Term, term_sort_key

__all__ = [
    "TERM_ID_BASE",
    "TermId",
    "TermDictionary",
    "default_dictionary",
    "is_term_id",
    "storage_cell",
    "storage_cells",
]

#: Dense term IDs start here. Any integer cell at or above the base is a
#: dictionary ID; anything below is an engine-produced number (a COUNT).
#: 2**46 is unreachable as a row count yet leaves plenty of headroom below
#: the 63-bit mask ``stable_hash`` reduces into.
TERM_ID_BASE = 1 << 46

#: Term IDs are deliberately *plain* ints (see the module docstring for
#: why an ``int`` subclass would wreck GC behavior); the alias keeps
#: signatures self-describing.
TermId = int


def is_term_id(cell) -> bool:
    """Whether a cell is a dictionary term ID (range-tagged plain int)."""
    return type(cell) is int and cell >= TERM_ID_BASE


class TermDictionary:
    """Bidirectional map between encoded terms and dense integer IDs."""

    __slots__ = (
        "_id_by_text",
        "_text_by_id",
        "_term_by_id",
        "_sort_key_by_id",
        "_len_by_id",
        "_intern_lock",
    )

    def __init__(self) -> None:
        self._id_by_text: dict[str, TermId] = {}
        self._text_by_id: list[str] = []
        self._term_by_id: list[Term | None] = []
        self._sort_key_by_id: list[tuple | None] = []
        self._len_by_id: list[int] = []
        # Interning is check-then-append on shared maps; two threads racing
        # on a *new* term could otherwise assign it two different IDs, and
        # an ID-vs-ID equality join would then silently miss rows. The
        # serve layer executes concurrent queries, so the slow path (first
        # sighting of a term) takes this lock; the hot path (already
        # interned) stays a plain lock-free dict hit.
        self._intern_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._text_by_id)

    def intern_text(self, text: str) -> TermId:
        """The ID for an encoded term, assigning the next dense ID if new."""
        found = self._id_by_text.get(text)
        if found is not None:
            return found
        with self._intern_lock:
            found = self._id_by_text.get(text)  # re-check under the lock
            if found is not None:
                return found
            term_id = TERM_ID_BASE + len(self._text_by_id)
            self._text_by_id.append(text)
            self._term_by_id.append(None)
            self._sort_key_by_id.append(None)
            self._len_by_id.append(len(text))
            # Publish the ID last: a concurrent lock-free reader either
            # misses (and serializes behind the lock) or sees an ID whose
            # side tables are already in place.
            self._id_by_text[text] = term_id
        return term_id

    def intern_term(self, term: Term) -> TermId:
        """The ID for a term object (interns its N-Triples serialization)."""
        return self.intern_text(term.n3())

    def lookup(self, text: str) -> TermId | None:
        """The ID for encoded text, or ``None`` when never interned."""
        return self._id_by_text.get(text)

    def text_of(self, term_id: int) -> str:
        """The encoded N-Triples text behind an ID."""
        return self._text_by_id[term_id - TERM_ID_BASE]

    def term_of(self, term_id: int) -> Term:
        """The parsed term behind an ID (parsed once, then memoized)."""
        index = term_id - TERM_ID_BASE
        term = self._term_by_id[index]
        if term is None:
            term = parse_term(self._text_by_id[index])
            self._term_by_id[index] = term
        return term

    def term_for_text(self, text: str) -> Term:
        """Parse-with-memoization for a lexical cell (interns the text)."""
        return self.term_of(self.intern_text(text))

    def sort_key_of(self, term_id: int) -> tuple:
        """The :func:`~repro.rdf.terms.term_sort_key` of an ID's term,
        computed once and memoized — result ordering sorts encoded rows by
        ID without re-deriving per-term keys every query."""
        index = term_id - TERM_ID_BASE
        key = self._sort_key_by_id[index]
        if key is None:
            key = term_sort_key(self.term_of(term_id))
            self._sort_key_by_id[index] = key
        return key

    @property
    def texts(self) -> list[str]:
        """The text table, indexed by ``term_id - TERM_ID_BASE`` (read-only;
        hot sizing loops index it directly to skip a method call per cell)."""
        return self._text_by_id

    @property
    def decoded_lengths(self) -> list[int]:
        """Per-ID decoded text lengths, indexed by ``term_id -
        TERM_ID_BASE`` (read-only; the cost model's sizing loop)."""
        return self._len_by_id

    def clear(self) -> None:
        """Drop every entry (fresh ID space; used between benchmark passes)."""
        self._id_by_text.clear()
        self._text_by_id.clear()
        self._term_by_id.clear()
        self._sort_key_by_id.clear()
        self._len_by_id.clear()


_DEFAULT = TermDictionary()


def default_dictionary() -> TermDictionary:
    """The process-wide dictionary shared by every engine and baseline."""
    return _DEFAULT


def storage_cell(cell):
    """A cell as persisted storage sees it: IDs decode to lexical text."""
    if type(cell) is int and cell >= TERM_ID_BASE:
        return _DEFAULT.text_of(cell)
    if isinstance(cell, list):
        return [storage_cell(element) for element in cell]
    return cell


def _id_texts(cells: Iterable) -> dict[int, str]:
    text_of = _DEFAULT.text_of
    return {
        cell: text_of(cell)
        for cell in dict.fromkeys(cells)
        if type(cell) is int and cell >= TERM_ID_BASE
    }


def storage_cells(cells: Sequence) -> Sequence:
    """A column of cells converted for persistence: :func:`storage_cell` of
    each, with every distinct ID looked up once.

    The shortcut is taken only for a column that holds nothing but what
    tables of terms hold — plain ints, strings and NULLs, or lists of the
    first two — since it finds a cell's text by equality, and ``1.0`` or
    ``True`` equal an int without being one. Any other column is converted
    cell by cell.
    """
    kinds = set(map(type, cells)) - {type(None)}
    if kinds <= {int, str}:
        texts = _id_texts(cells)
        return list(map(texts.get, cells, cells)) if texts else cells
    if kinds == {list}:
        elements = list(chain.from_iterable(filter(None, cells)))
        if set(map(type, elements)) <= {int, str}:
            texts = _id_texts(elements)
            if not texts:
                return cells
            return [cell and list(map(texts.get, cell, cell)) for cell in cells]
    return [storage_cell(cell) for cell in cells]
