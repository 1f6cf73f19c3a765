"""Encoder tests: PLAIN / RLE / DICTIONARY round trips and selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnSchema, encode_best
from repro.columnar.encoding import encode_dictionary, encode_plain, encode_rle
from repro.errors import EncodingError

from .reference_decoders import decode, decode_dictionary, decode_plain, decode_rle

STRING_COL = ColumnSchema("c", "string")
INT_COL = ColumnSchema("c", "int")
DOUBLE_COL = ColumnSchema("c", "double")
BOOL_COL = ColumnSchema("c", "bool")
LIST_COL = ColumnSchema("c", "list<string>")
INT_LIST_COL = ColumnSchema("c", "list<int>")

CODECS = [
    (encode_plain, decode_plain),
    (encode_rle, decode_rle),
    (encode_dictionary, decode_dictionary),
]


@pytest.mark.parametrize("encode,decode_fn", CODECS)
class TestRoundTrips:
    def test_strings_with_nulls(self, encode, decode_fn):
        values = ["a", None, "b", "b", None, None, ""]
        assert decode_fn(STRING_COL, encode(STRING_COL, values)) == values

    def test_integers_signed(self, encode, decode_fn):
        values = [0, -1, 2**40, -(2**40), None, 7, 7]
        assert decode_fn(INT_COL, encode(INT_COL, values)) == values

    def test_doubles(self, encode, decode_fn):
        values = [0.5, -1.25, None, 3.0]
        assert decode_fn(DOUBLE_COL, encode(DOUBLE_COL, values)) == values

    def test_bools(self, encode, decode_fn):
        values = [True, False, None, True, True]
        assert decode_fn(BOOL_COL, encode(BOOL_COL, values)) == values

    def test_string_lists(self, encode, decode_fn):
        values = [["a", "b"], None, [], ["a", "b"], ["c"]]
        assert decode_fn(LIST_COL, encode(LIST_COL, values)) == values

    def test_int_lists(self, encode, decode_fn):
        values = [[1, 2, 3], None, [], [-9]]
        assert decode_fn(INT_LIST_COL, encode(INT_LIST_COL, values)) == values

    def test_empty_column(self, encode, decode_fn):
        assert decode_fn(STRING_COL, encode(STRING_COL, [])) == []

    def test_unicode_strings(self, encode, decode_fn):
        values = ["héllo", "é中文", None]
        assert decode_fn(STRING_COL, encode(STRING_COL, values)) == values


class TestCompressionBehaviour:
    def test_rle_collapses_null_runs(self):
        values = [None] * 1000 + ["x"]
        rle = encode_rle(STRING_COL, values)
        plain = encode_plain(STRING_COL, values)
        assert len(rle) < len(plain) / 50

    def test_dictionary_collapses_repeated_strings(self):
        values = ["http://example.org/very/long/iri"] * 500
        dictionary = encode_dictionary(STRING_COL, values)
        plain = encode_plain(STRING_COL, values)
        assert len(dictionary) < len(plain) / 50

    def test_encode_best_picks_smallest(self):
        values = [None] * 100 + ["a"] * 100
        name, data = encode_best(STRING_COL, values)
        for codec in ("plain", "rle", "dictionary"):
            _, other = encode_best(STRING_COL, values, allowed=(codec,))
            assert len(data) <= len(other)
        assert name in ("rle", "dictionary")

    def test_encode_best_respects_allowed(self):
        name, _ = encode_best(STRING_COL, ["a", "a"], allowed=("plain",))
        assert name == "plain"

    def test_encode_best_requires_a_codec(self):
        with pytest.raises(EncodingError):
            encode_best(STRING_COL, [], allowed=())


class TestDecodeDispatch:
    def test_decode_by_name(self):
        data = encode_rle(STRING_COL, ["a", "a"])
        assert decode(STRING_COL, "rle", data) == ["a", "a"]

    def test_unknown_encoding_rejected(self):
        with pytest.raises(EncodingError):
            decode(STRING_COL, "lzma", b"")

    def test_truncated_data_rejected(self):
        data = encode_plain(STRING_COL, ["abc"])
        with pytest.raises(EncodingError):
            decode_plain(STRING_COL, data[:-2])


_cells = st.none() | st.text(max_size=12)
_list_cells = st.none() | st.lists(st.text(max_size=6), max_size=4)


@given(st.lists(_cells, max_size=60))
@settings(max_examples=60, deadline=None)
def test_property_all_codecs_round_trip_strings(values):
    for encode, decode_fn in CODECS:
        assert decode_fn(STRING_COL, encode(STRING_COL, values)) == values


@given(st.lists(_list_cells, max_size=40))
@settings(max_examples=60, deadline=None)
def test_property_all_codecs_round_trip_lists(values):
    for encode, decode_fn in CODECS:
        assert decode_fn(LIST_COL, encode(LIST_COL, values)) == values


@given(st.lists(st.none() | st.integers(-(2**62), 2**62), max_size=50))
@settings(max_examples=60, deadline=None)
def test_property_all_codecs_round_trip_integers(values):
    for encode, decode_fn in CODECS:
        assert decode_fn(INT_COL, encode(INT_COL, values)) == values
