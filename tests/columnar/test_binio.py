"""Binary reader/writer primitive tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ByteWriter
from repro.errors import EncodingError

from .reference_decoders import ByteReader
from .reference_encoders import write_double


class TestWriterReader:
    def test_uvarint_round_trip_boundaries(self):
        writer = ByteWriter()
        values = [0, 1, 127, 128, 16383, 16384, 2**40]
        for value in values:
            writer.write_uvarint(value)
        reader = ByteReader(writer.getvalue())
        assert [reader.read_uvarint() for _ in values] == values

    def test_negative_uvarint_rejected(self):
        with pytest.raises(EncodingError):
            ByteWriter().write_uvarint(-1)

    def test_signed_varint_round_trip(self):
        writer = ByteWriter()
        values = [0, -1, 1, -(2**40), 2**40]
        for value in values:
            writer.write_varint(value)
        reader = ByteReader(writer.getvalue())
        assert [reader.read_varint() for _ in values] == values

    def test_string_round_trip(self):
        writer = ByteWriter()
        writer.write_string("héllo 中文")
        assert ByteReader(writer.getvalue()).read_string() == "héllo 中文"

    def test_double_round_trip(self):
        writer = ByteWriter()
        write_double(writer, -3.5)
        assert ByteReader(writer.getvalue()).read_double() == -3.5

    def test_sized_bytes_round_trip(self):
        writer = ByteWriter()
        writer.write_sized(b"\x00\x01\x02")
        assert ByteReader(writer.getvalue()).read_sized() == b"\x00\x01\x02"

    def test_truncated_read_rejected(self):
        writer = ByteWriter()
        writer.write_string("hello")
        data = writer.getvalue()[:-2]
        with pytest.raises(EncodingError):
            ByteReader(data).read_string()

    def test_truncated_varint_rejected(self):
        with pytest.raises(EncodingError):
            ByteReader(b"\x80").read_uvarint()

    def test_len_tracks_written_bytes(self):
        writer = ByteWriter()
        writer.write_bytes(b"abc")
        assert len(writer) == 3

    def test_reader_position_and_remaining(self):
        reader = ByteReader(b"abcdef")
        reader.read_bytes(2)
        assert reader.position == 2
        assert reader.remaining == 4


@given(st.integers(min_value=0, max_value=2**63))
@settings(max_examples=100, deadline=None)
def test_property_uvarint_round_trips(value):
    writer = ByteWriter()
    writer.write_uvarint(value)
    assert ByteReader(writer.getvalue()).read_uvarint() == value


@given(st.integers(min_value=-(2**62), max_value=2**62))
@settings(max_examples=100, deadline=None)
def test_property_varint_round_trips(value):
    writer = ByteWriter()
    writer.write_varint(value)
    assert ByteReader(writer.getvalue()).read_varint() == value
