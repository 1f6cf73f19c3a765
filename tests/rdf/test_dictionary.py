"""Term dictionary tests: dense IDs, memoized decode, and round-trips."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdf.dictionary import (
    TERM_ID_BASE,
    TermDictionary,
    default_dictionary,
    is_term_id,
    storage_cell,
    storage_cells,
)
from repro.rdf.terms import IRI, BlankNode, Literal, XSD_INTEGER


class TestTermDictionary:
    def test_ids_are_dense_and_stable(self):
        d = TermDictionary()
        a = d.intern_text("<http://ex/a>")
        b = d.intern_text("<http://ex/b>")
        assert (a, b) == (TERM_ID_BASE, TERM_ID_BASE + 1)
        assert d.intern_text("<http://ex/a>") == a
        assert len(d) == 2

    def test_ids_are_range_tagged_plain_ints(self):
        """IDs must be *plain* ints above the base: an ``int`` subclass
        would be GC-tracked and defeat tuple untracking (see module docs),
        and a sub-base value would be mistaken for a COUNT."""
        term_id = TermDictionary().intern_text("<http://ex/a>")
        assert type(term_id) is int
        assert is_term_id(term_id)
        assert not is_term_id(7)
        assert not is_term_id("<http://ex/a>")
        assert not is_term_id(True)

    def test_text_round_trip(self):
        d = TermDictionary()
        term_id = d.intern_text('"hello"@en')
        assert d.text_of(term_id) == '"hello"@en'

    def test_term_is_parsed_once_and_memoized(self):
        d = TermDictionary()
        term_id = d.intern_term(IRI("http://ex/a"))
        first = d.term_of(term_id)
        assert first == IRI("http://ex/a")
        assert d.term_of(term_id) is first

    def test_lookup_misses_return_none(self):
        d = TermDictionary()
        assert d.lookup("<http://ex/never-interned>") is None

    def test_decoded_lengths_match_text_length(self):
        d = TermDictionary()
        text = "<http://ex/some-longer-iri>"
        assert d.decoded_lengths[d.intern_text(text) - TERM_ID_BASE] == len(text)

    def test_clear_resets_id_space(self):
        d = TermDictionary()
        d.intern_text("<http://ex/a>")
        d.clear()
        assert len(d) == 0
        assert d.intern_text("<http://ex/b>") == TERM_ID_BASE

    def test_term_for_text_interns(self):
        d = TermDictionary()
        term = d.term_for_text("<http://ex/via-text>")
        assert term == IRI("http://ex/via-text")
        assert d.lookup("<http://ex/via-text>") is not None


class TestStorageBoundary:
    def test_term_ids_decode_to_lexical_text(self):
        term_id = default_dictionary().intern_text("<http://ex/stored>")
        assert storage_cell(term_id) == "<http://ex/stored>"

    def test_lists_decode_elementwise(self):
        d = default_dictionary()
        ids = [d.intern_text("<http://ex/l1>"), d.intern_text("<http://ex/l2>")]
        assert storage_cell(ids) == ["<http://ex/l1>", "<http://ex/l2>"]

    def test_non_id_cells_pass_through(self):
        row = ("<http://ex/raw>", None, 7, 1.5)
        assert tuple(storage_cell(cell) for cell in row) == row
        assert tuple(storage_cells(row)) == row

    def test_a_column_decodes_like_its_cells(self):
        d = default_dictionary()
        a, b = d.intern_text("<http://ex/col-a>"), d.intern_text("<http://ex/col-b>")
        columns = [
            (a, None, b, a, a, "<http://ex/raw>", 7),
            ([a, b], None, [], [b], [a, "raw"]),
            (),
            (None, None),
            # Cells that equal an ID, or 1, without being a plain int: the
            # per-distinct lookup must not hand them the ID's text.
            (a, float(a), None),
            (float(b), b, True, 1),
            ([a, float(a)], [b]),
            ([a], (b,), "x"),
        ]
        for column in columns:
            expected = [storage_cell(cell) for cell in column]
            got = list(storage_cells(column))
            assert got == expected
            assert [type(cell) for cell in got] == [type(cell) for cell in expected]


# Term generators for the round-trip property tests: full unicode (including
# lone surrogates, i.e. surrogate-escaped raw bytes), numeric literals,
# blank nodes, and IRIs.
_unicode_text = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF),
    max_size=20,
)
_surrogate_text = st.text(
    alphabet=st.characters(min_codepoint=0xDC00, max_codepoint=0xDCFF),
    min_size=1,
    max_size=8,
)
_numeric_literals = st.integers(-(10**9), 10**9).map(
    lambda n: Literal(str(n), datatype=XSD_INTEGER)
) | st.floats(allow_nan=False, allow_infinity=False).map(
    lambda x: Literal(repr(x), datatype="http://www.w3.org/2001/XMLSchema#double")
)
_dictionary_terms = (
    st.from_regex(r"[a-z0-9/._~%-]{1,16}", fullmatch=True).map(
        lambda s: IRI("http://ex/" + s)
    )
    | st.builds(Literal, _unicode_text)
    | st.builds(Literal, _surrogate_text)
    | st.builds(
        Literal,
        st.text(max_size=10),
        language=st.from_regex(r"[a-z]{2}(-[a-z0-9]{1,4})?", fullmatch=True),
    )
    | _numeric_literals
    | st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,10}", fullmatch=True).map(BlankNode)
)


@given(_dictionary_terms)
@settings(max_examples=200, deadline=None)
def test_property_dictionary_round_trip(term):
    """intern → decode is the identity for every representable term."""
    d = default_dictionary()
    term_id = d.intern_term(term)
    assert d.term_of(term_id) == term
    assert d.text_of(term_id) == term.n3()


@given(st.lists(_dictionary_terms, min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_property_interning_is_injective(terms):
    """Distinct terms get distinct IDs; equal terms share one ID."""
    d = TermDictionary()
    ids = [d.intern_term(t) for t in terms]
    by_term = {}
    for term, term_id in zip(terms, ids):
        by_term.setdefault(term.n3(), set()).add(term_id)
    assert all(len(assigned) == 1 for assigned in by_term.values())
    assert len(set(ids)) == len(by_term)
