"""Deterministic grace-hash spill join — the over-budget hash-join path.

When a hash-join build side outgrows the memory budget, the executor
runs its build/probe kernel through the classic grace hash join instead
of over the whole partition pair: both inputs are split by an independent
hash of the join key into a deterministic fanout of disk buckets, and the
kernel joins one bucket pair at a time. Three properties matter:

- **Output equivalence**: the probe side carries each row's original
  ordinal through the kernel as one extra column, and the merged output
  is stably re-sorted by it, so the spilled join returns rows in *exactly*
  the order of the in-memory join — spilling is invisible to everything
  downstream.
- **Deterministic buckets**: bucket placement re-mixes ``stable_hash``
  through splitmix64, decorrelating it from the shuffle partitioner (a
  shuffled partition holds keys congruent mod the partition count, so
  reusing the same hash would collapse every row into one bucket). The
  same inputs always produce byte-identical bucket files.
- **One kernel**: this module only buckets, spills and re-orders column
  batches; matching (NULL keys, inner/left emission) is the
  executor's build/probe, handed in as ``join_bucket``, so the degraded
  path cannot drift from the in-memory one.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable
from itertools import chain

from ..engine.data import _mix_int, stable_hash
from ..vector import ColumnBatch, batch_bytes

#: XOR'd into ``stable_hash`` before re-mixing so bucket placement is
#: independent of the shuffle partitioner built on the same hash.
_BUCKET_SALT = 0x517CC1B727220A95


class SpillStore:
    """Bucket files for one grace-hash join, under the query's spill dir.

    Writes pickled column tuples to ``directory`` and accounts the spilled
    volume into ``metrics.spill_bytes`` using the engine's ``batch_bytes``
    sizing — the estimate the cost model uses everywhere else, so the
    counter is deterministic (actual pickle sizes are not: they depend on
    object-sharing patterns).

    Attributes:
        directory: pre-created directory the bucket files land in.
        metrics: the query's ``ExecutionMetrics`` (for spill accounting).
        paths: every file written, for lifecycle tests and cleanup audits.
    """

    __slots__ = ("directory", "metrics", "paths")

    def __init__(self, directory: str, metrics):
        self.directory = directory
        self.metrics = metrics
        self.paths: list[str] = []

    def write(self, name: str, columns: tuple) -> str:
        """Persist one bucket's columns; returns the file path."""
        path = os.path.join(self.directory, f"{name}.pkl")
        with open(path, "wb") as handle:
            pickle.dump(columns, handle, protocol=4)
        self.paths.append(path)
        return path

    def read(self, path: str) -> ColumnBatch:
        """Load one bucket back as an unselected batch."""
        with open(path, "rb") as handle:
            columns = pickle.load(handle)
        return ColumnBatch(columns, len(columns[0]))

    def account(self, batch: ColumnBatch) -> None:
        """Charge a spilled batch's live rows into ``metrics.spill_bytes``."""
        self.metrics.spill_bytes += batch_bytes(batch)


def bucket_of(key: tuple, fanout: int) -> int:
    """Deterministic grace-hash bucket for a join key.

    ``stable_hash`` re-mixed through splitmix64: equal keys always share a
    bucket, and placement is independent of the shuffle partitioner.
    """
    return _mix_int(stable_hash(key) ^ _BUCKET_SALT) % fanout


def _spill_buckets(
    store: SpillStore, side: str, columns: tuple, key_idx: list[int], fanout: int
) -> list[str]:
    """Write ``columns`` out as one file per bucket of the join key."""
    key_columns = [columns[i] for i in key_idx]
    sels: list[list[int]] = [[] for _ in range(fanout)]
    for i in range(len(columns[0])):
        key = tuple(column[i] for column in key_columns)
        sels[bucket_of(key, fanout)].append(i)
    # One bucket is gathered, written and dropped at a time.
    return [
        store.write(
            f"bucket-{bucket:04d}-{side}",
            tuple([column[i] for i in sel] for column in columns),
        )
        for bucket, sel in enumerate(sels)
    ]


def grace_hash_join(
    left: ColumnBatch,
    right: ColumnBatch,
    left_key_idx: list[int],
    right_key_idx: list[int],
    fanout: int,
    store: SpillStore,
    join_bucket: Callable[[ColumnBatch, ColumnBatch], ColumnBatch],
) -> ColumnBatch:
    """Grace-hash join of one partition pair through disk buckets.

    Returns what ``join_bucket(left, right)`` — the executor's in-memory
    build/probe, which keeps every left column in place at the front of
    its output — would return: identical rows in identical order, with the
    build held one bucket at a time instead of whole. Both sides spill,
    the probe side with its row ordinals appended as one more column; the
    bucket pairs join through ``join_bucket`` and the merged output is
    stably sorted back into probe order.
    """
    store.account(left)
    store.account(right)
    left = left.compact()
    ordinal = len(left.columns)
    left_paths = _spill_buckets(
        store, "left", left.columns + (range(left.length),), left_key_idx, fanout
    )
    right_paths = _spill_buckets(
        store, "right", right.compact().columns, right_key_idx, fanout
    )

    # Only one bucket pair is resident at a time — the point of the grace
    # hash. The outputs carry the ordinal column where the probe side put it.
    outputs = [
        join_bucket(store.read(left_path), store.read(right_path)).compact()
        for left_path, right_path in zip(left_paths, right_paths)
    ]
    merged = [
        list(chain.from_iterable(parts))
        for parts in zip(*(output.columns for output in outputs))
    ]
    # Stable sort by original probe ordinal: within one probe row the match
    # order is already the build-side insertion order (all equal keys share
    # a bucket), so this reproduces the in-memory kernel's output exactly.
    tags = merged.pop(ordinal)
    order = sorted(range(len(tags)), key=tags.__getitem__)
    return ColumnBatch(
        tuple([column[i] for i in order] for column in merged), len(order)
    )
