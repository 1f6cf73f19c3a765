"""Term ↔ cell encoding tests (dictionary IDs, and lexical cells decoding)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    cell_for_text,
    cell_text,
    decode_row,
    decode_term,
    encode_term,
    encode_term_text,
)
from repro.rdf import is_term_id
from repro.rdf.terms import IRI, BlankNode, Literal


class TestEncodeDecode:
    def test_iri(self):
        assert encode_term_text(IRI("http://ex/a")) == "<http://ex/a>"
        assert decode_term(encode_term(IRI("http://ex/a"))) == IRI("http://ex/a")
        assert decode_term("<http://ex/a>") == IRI("http://ex/a")

    def test_literal_with_datatype(self):
        lit = Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")
        assert decode_term(encode_term(lit)) == lit

    def test_language_literal(self):
        lit = Literal("hi", language="en")
        assert decode_term(encode_term(lit)) == lit

    def test_bnode(self):
        assert decode_term(encode_term(BlankNode("b0"))) == BlankNode("b0")

    def test_none_passes_through(self):
        assert decode_term(None) is None

    def test_decode_row(self):
        row = ("<http://ex/a>", None, '"x"')
        assert decode_row(row) == (IRI("http://ex/a"), None, Literal("x"))

    def test_encoding_is_injective_across_kinds(self):
        """An IRI, a literal of the same text, and a bnode never collide."""
        cells = {
            encode_term(IRI("x")),
            encode_term(Literal("x")),
            encode_term(BlankNode("x")),
        }
        assert len(cells) == 3


class TestTermIdContract:
    def test_cells_are_term_ids(self):
        cell = encode_term(IRI("http://ex/id-contract"))
        assert is_term_id(cell)

    def test_interning_is_idempotent(self):
        term = IRI("http://ex/idempotent")
        assert encode_term(term) == encode_term(term)

    def test_plain_int_decodes_to_count_literal(self):
        """An arithmetic int (COUNT output) is not a dictionary ID."""
        assert decode_term(7) == Literal(
            "7", datatype="http://www.w3.org/2001/XMLSchema#integer"
        )

    def test_term_id_decodes_through_dictionary(self):
        term = Literal("7", datatype="http://www.w3.org/2001/XMLSchema#integer")
        cell = encode_term(term)
        assert is_term_id(cell)
        assert decode_term(cell) == term

    def test_cell_text_round_trips(self):
        cell = cell_for_text("<http://ex/text-round-trip>")
        assert cell_text(cell) == "<http://ex/text-round-trip>"


_terms = (
    st.from_regex(r"[a-z0-9/._-]{1,12}", fullmatch=True).map(lambda s: IRI("http://ex/" + s))
    | st.builds(Literal, st.text(max_size=15))
    | st.from_regex(r"[A-Za-z0-9]{1,6}", fullmatch=True).map(BlankNode)
)


@given(_terms)
@settings(max_examples=100, deadline=None)
def test_property_term_cells_round_trip(term):
    assert decode_term(encode_term(term)) == term
