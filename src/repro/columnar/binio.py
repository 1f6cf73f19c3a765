"""Low-level binary writers for the columnar file format.

Implements the primitives the encoders and file footers are built from:
unsigned varints (LEB128), zigzag-coded signed varints, length-prefixed
UTF-8 strings, and raw byte runs. All multi-byte values are little-endian.
"""

from __future__ import annotations

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

    def write_sized(self, data: bytes) -> None:
        """Write a length-prefixed byte run."""
        self.write_uvarint(len(data))
        self.write_bytes(data)
