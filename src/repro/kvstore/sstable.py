"""Immutable sorted runs (SSTable analogue) for the key-value store.

A :class:`SortedRun` is a frozen, sorted sequence of ``(key, value)`` string
pairs supporting binary-searched range scans — the storage primitive that
gives Accumulo (and thus Rya) its fast point and range lookups.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator
from ..errors import ValidationError


class SortedRun:
    """An immutable sorted run of key-value pairs with unique keys."""

    def __init__(self, items: Iterable[tuple[str, str]]):
        pairs = sorted(items)
        self._keys = [key for key, _ in pairs]
        self._values = [value for _, value in pairs]
        for i in range(1, len(self._keys)):
            if self._keys[i] == self._keys[i - 1]:
                raise ValidationError(f"duplicate key in sorted run: {self._keys[i]!r}")

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return zip(iter(self._keys), iter(self._values))

    @property
    def first_key(self) -> str | None:
        return self._keys[0] if self._keys else None

    @property
    def last_key(self) -> str | None:
        return self._keys[-1] if self._keys else None

    def get(self, key: str) -> str | None:
        """Point lookup; ``None`` when absent."""
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return self._values[index]
        return None

    def scan(self, start: str | None = None, stop: str | None = None) -> Iterator[tuple[str, str]]:
        """Yield pairs with ``start <= key < stop`` in key order.

        ``None`` bounds are open: scan from the beginning / to the end.
        """
        index = 0 if start is None else bisect_left(self._keys, start)
        while index < len(self._keys):
            key = self._keys[index]
            if stop is not None and key >= stop:
                return
            yield key, self._values[index]
            index += 1


def merge_runs(runs: list[SortedRun]) -> SortedRun:
    """Merge runs into one; later runs win on duplicate keys (compaction)."""
    merged: dict[str, str] = {}
    for run in runs:
        for key, value in run:
            merged[key] = value
    return SortedRun(merged.items())


def prefix_upper_bound(prefix: str) -> str | None:
    """The smallest string greater than every string with ``prefix``.

    Returns ``None`` when no such bound exists (prefix of all ``\\uffff``).
    """
    chars = list(prefix)
    while chars:
        code = ord(chars[-1])
        if code < 0x10FFFF:
            chars[-1] = chr(code + 1)
            return "".join(chars)
        chars.pop()
    return None
