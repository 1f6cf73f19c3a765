"""Low-level binary readers/writers for the columnar file format.

Implements the primitives the encoders and file footers are built from:
unsigned varints (LEB128), zigzag-coded signed varints, length-prefixed
UTF-8 strings, and raw byte runs. All multi-byte values are little-endian.
"""

from __future__ import annotations

import struct

from ..errors import EncodingError


#: The one-byte varints, which is nearly all of them: run lengths,
#: dictionary codes and string lengths are mostly below 128.
SMALL_UVARINTS = tuple(bytes([value]) for value in range(0x80))


def uvarint_bytes(value: int) -> bytes:
    """An unsigned LEB128 varint.

    Raises:
        EncodingError: for a negative value.
    """
    if 0 <= value < 0x80:
        return SMALL_UVARINTS[value]
    if value < 0:
        raise EncodingError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def varint_bytes(value: int) -> bytes:
    """A signed varint (zigzag coding)."""
    return uvarint_bytes((value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1)


class ByteWriter:
    """Append-only binary buffer."""

    def __init__(self):
        self._chunks: list[bytes] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def write_bytes(self, data: bytes) -> None:
        self._chunks.append(data)
        self._size += len(data)

    def write_uvarint(self, value: int) -> None:
        """Write an unsigned LEB128 varint."""
        self.write_bytes(uvarint_bytes(value))

    def write_varint(self, value: int) -> None:
        """Write a signed varint using zigzag coding."""
        self.write_bytes(varint_bytes(value))

    def write_string(self, text: str) -> None:
        """Write a length-prefixed UTF-8 string."""
        data = text.encode("utf-8")
        self.write_uvarint(len(data))
        self.write_bytes(data)

    def write_double(self, value: float) -> None:
        self.write_bytes(struct.pack("<d", value))

    def write_sized(self, data: bytes) -> None:
        """Write a length-prefixed byte run."""
        self.write_uvarint(len(data))
        self.write_bytes(data)


class ByteReader:
    """Cursor-based reader matching :class:`ByteWriter`."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        self._pos = offset

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def read_bytes(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise EncodingError("unexpected end of encoded data")
        data = self._data[self._pos : self._pos + count]
        self._pos += count
        return data

    def read_uvarint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self._pos >= len(self._data):
                raise EncodingError("truncated varint")
            byte = self._data[self._pos]
            self._pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise EncodingError("varint too long")

    def read_varint(self) -> int:
        raw = self.read_uvarint()
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)

    def read_string(self) -> str:
        length = self.read_uvarint()
        return self.read_bytes(length).decode("utf-8")

    def read_double(self) -> float:
        return struct.unpack("<d", self.read_bytes(8))[0]

    def read_sized(self) -> bytes:
        return self.read_bytes(self.read_uvarint())
