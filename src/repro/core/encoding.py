"""Term ↔ cell encoding shared by all stores.

Runtime tables store RDF terms as dense integer :class:`TermId` cells
assigned by the global term dictionary (``rdf/dictionary.py``), so joins,
DISTINCT sets, and equality filters work on small ints. The encoding is
injective — equal IDs are equal terms — and reversible: result rows decode
back to term objects only at the emission boundary, via a memoized O(1)
dictionary lookup.

Persisted artifacts store the lexical N-Triples serialization (``<iri>``,
``"literal"^^<dt>``, ``_:b0``) instead; see
:func:`repro.rdf.dictionary.storage_cells`. Cells carrying that text (Rya's
index keys, generic engine tables) still decode, through the dictionary's
memoized text → term cache.
"""

from __future__ import annotations

from ..rdf.dictionary import TERM_ID_BASE, TermId, default_dictionary
from ..rdf.terms import XSD_INTEGER, Literal, Term


def encode_term(term: Term) -> TermId:
    """Encode a term for storage in a table cell: its interned
    :class:`TermId`.

    Query constants go through here too, so a constant always compares
    against data cells in the same representation.
    """
    return default_dictionary().intern_term(term)


def encode_term_text(term: Term) -> str:
    """The lexical (N-Triples) encoding.

    This is what persisted artifacts store: columnar files, SPARQLGX's
    plain-text VP files, and Rya's sorted index keys.
    """
    return term.n3()


def decode_term(cell: TermId | str | int | None) -> Term | None:
    """Decode a table cell back to a term (``None`` passes through).

    Term-ID cells (ints at or above :data:`TERM_ID_BASE`) resolve through
    the dictionary's memoized term cache. Integers below the base are
    engine-produced COUNT values and decode to ``xsd:integer`` literals.
    String cells parse their N-Triples text — memoized through the
    dictionary, so baselines that carry lexical cells (Rya's index keys)
    decode at amortized O(1).
    """
    if cell is None:
        return None
    if isinstance(cell, int):
        if cell >= TERM_ID_BASE:
            return default_dictionary().term_of(cell)
        return Literal(str(cell), datatype=XSD_INTEGER)
    return default_dictionary().term_for_text(cell)


def decode_row(row: tuple) -> tuple[Term | None, ...]:
    """Decode a whole result row of encoded cells."""
    return tuple([decode_term(cell) for cell in row])


def cell_for_text(text: str) -> TermId:
    """The runtime cell for already-encoded text (interned)."""
    return default_dictionary().intern_text(text)


def cell_text(cell: TermId) -> str:
    """The lexical encoding behind a runtime cell (inverse of the above)."""
    return default_dictionary().text_of(cell)
