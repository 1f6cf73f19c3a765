"""Sorted key-value store with tablets (mini-Accumulo).

Data lives in an in-memory memtable plus frozen :class:`SortedRun` files; a
scan merge-reads all of them. Keys are range-partitioned into *tablets*
assigned to tablet servers, as in Accumulo, so the store can report which
server answers a scan and account per-server load.

Scan cost accounting (seeks and entries read) feeds the Rya baseline's
simulated query-time model.
"""

from __future__ import annotations

import heapq
import zlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .sstable import SortedRun, merge_runs, prefix_upper_bound
from ..errors import TableNotFoundError, ValidationError

#: Flush the memtable into a sorted run once it reaches this many entries.
DEFAULT_MEMTABLE_LIMIT = 100_000


@dataclass
class ScanMetrics:
    """Cumulative scan-side cost counters."""

    seeks: int = 0
    entries_read: int = 0
    scans: int = 0

    def reset(self) -> None:
        self.seeks = 0
        self.entries_read = 0
        self.scans = 0


@dataclass(frozen=True)
class Tablet:
    """A contiguous key range served by one tablet server.

    ``start`` is inclusive and ``stop`` exclusive; ``None`` means open-ended.
    """

    start: str | None
    stop: str | None
    server: int


@dataclass
class _TableData:
    memtable: dict[str, str] = field(default_factory=dict)
    runs: list[SortedRun] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.memtable) + sum(len(run) for run in self.runs)


class SortedKeyValueStore:
    """A multi-table sorted KV store with range-partitioned tablets.

    Args:
        num_tablet_servers: how many servers tablets are spread over.
        memtable_limit: entries buffered before an automatic flush.
    """

    def __init__(
        self, num_tablet_servers: int = 9, memtable_limit: int = DEFAULT_MEMTABLE_LIMIT
    ):
        if num_tablet_servers <= 0:
            raise ValidationError("num_tablet_servers must be positive")
        self.num_tablet_servers = num_tablet_servers
        self.memtable_limit = memtable_limit
        self._tables: dict[str, _TableData] = {}
        self.metrics = ScanMetrics()

    # -- table management ------------------------------------------------------

    def create_table(self, name: str) -> None:
        """Create an empty table; creating an existing table is an error."""
        if name in self._tables:
            raise ValidationError(f"table already exists: {name!r}")
        self._tables[name] = _TableData()

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def table_size(self, name: str) -> int:
        """Number of live entries in a table."""
        return len(self._table(name))

    def stored_bytes(self, name: str | None = None) -> int:
        """On-disk bytes, as Accumulo RFiles store them.

        Each sorted run is serialized with relative-key (prefix) encoding —
        a key costs only its suffix beyond the previous key — and the whole
        stream is gzip-compressed, matching RFile's block compression.
        Memtable entries are counted uncompressed, as the in-memory map.
        """
        tables = [self._table(name)] if name else self._tables.values()
        total = 0
        for data in tables:
            for key, value in data.memtable.items():
                total += len(key.encode()) + len(value.encode())
            for run in data.runs:
                stream = bytearray()
                previous = ""
                for key, value in run:
                    shared = _common_prefix_length(previous, key)
                    suffix = key[shared:]
                    stream += b"\x00" + suffix.encode() + b"\x00" + value.encode()
                    previous = key
                total += len(zlib.compress(bytes(stream), level=6))
        return total

    def _table(self, name: str) -> _TableData:
        data = self._tables.get(name)
        if data is None:
            raise TableNotFoundError(f"no such table: {name!r}")
        return data

    # -- writes ------------------------------------------------------------------

    def put(self, table: str, key: str, value: str = "") -> None:
        """Insert or overwrite one entry."""
        data = self._table(table)
        data.memtable[key] = value
        if len(data.memtable) >= self.memtable_limit:
            self.flush(table)

    def batch_put(self, table: str, items: Iterable[tuple[str, str]]) -> int:
        """Bulk ingest; returns the number of entries written."""
        count = 0
        for key, value in items:
            self.put(table, key, value)
            count += 1
        return count

    def flush(self, table: str) -> None:
        """Freeze the memtable into a sorted run."""
        data = self._table(table)
        if data.memtable:
            data.runs.append(SortedRun(data.memtable.items()))
            data.memtable = {}

    def compact(self, table: str) -> None:
        """Merge all runs (and the memtable) into a single run."""
        data = self._table(table)
        self.flush(table)
        if len(data.runs) > 1:
            data.runs = [merge_runs(data.runs)]

    # -- reads ---------------------------------------------------------------------

    def get(self, table: str, key: str) -> str | None:
        """Point lookup across memtable and runs (newest wins)."""
        data = self._table(table)
        self.metrics.seeks += 1
        if key in data.memtable:
            self.metrics.entries_read += 1
            return data.memtable[key]
        for run in reversed(data.runs):
            value = run.get(key)
            if value is not None:
                self.metrics.entries_read += 1
                return value
        return None

    def scan(
        self, table: str, start: str | None = None, stop: str | None = None
    ) -> Iterator[tuple[str, str]]:
        """Merge-scan ``[start, stop)`` over all runs and the memtable."""
        data = self._table(table)
        self.metrics.scans += 1
        sources: list[Iterator[tuple[str, str]]] = []
        for run in data.runs:
            self.metrics.seeks += 1
            sources.append(run.scan(start, stop))
        if data.memtable:
            self.metrics.seeks += 1
            in_range = sorted(
                (key, value)
                for key, value in data.memtable.items()
                if (start is None or key >= start) and (stop is None or key < stop)
            )
            sources.append(iter(in_range))
        last_key: str | None = None
        for key, value in heapq.merge(*sources):
            if key == last_key:
                continue  # duplicate across runs: keep first (runs are disjoint in practice)
            last_key = key
            self.metrics.entries_read += 1
            yield key, value

    def prefix_scan(self, table: str, prefix: str) -> Iterator[tuple[str, str]]:
        """Scan every entry whose key starts with ``prefix``."""
        return self.scan(table, start=prefix, stop=prefix_upper_bound(prefix))

    # -- tablets ------------------------------------------------------------------

    def tablets(self, table: str) -> list[Tablet]:
        """Range-partition the table's current keyspace into tablets.

        Splits the sorted keyspace into ``num_tablet_servers`` near-equal
        ranges (one per server); a small table may yield fewer tablets.
        """
        keys = sorted(key for key, _ in self.scan(table))
        # The metrics hit from this internal scan is not a user scan: undo it.
        self.metrics.scans -= 1
        self.metrics.entries_read -= len(keys)
        if not keys:
            return [Tablet(start=None, stop=None, server=0)]
        per_tablet = max(1, len(keys) // self.num_tablet_servers)
        tablets: list[Tablet] = []
        start: str | None = None
        for server in range(self.num_tablet_servers):
            boundary_index = (server + 1) * per_tablet
            if server == self.num_tablet_servers - 1 or boundary_index >= len(keys):
                tablets.append(Tablet(start=start, stop=None, server=server))
                break
            stop = keys[boundary_index]
            tablets.append(Tablet(start=start, stop=stop, server=server))
            start = stop
        return tablets

    def server_for_key(self, table: str, key: str) -> int:
        """Which tablet server owns ``key`` under the current split."""
        for tablet in self.tablets(table):
            if (tablet.start is None or key >= tablet.start) and (
                tablet.stop is None or key < tablet.stop
            ):
                return tablet.server
        raise AssertionError("tablets must cover the whole keyspace")


def _common_prefix_length(left: str, right: str) -> int:
    """Length of the longest common prefix of two strings."""
    limit = min(len(left), len(right))
    index = 0
    while index < limit and left[index] == right[index]:
        index += 1
    return index
