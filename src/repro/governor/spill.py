"""Deterministic grace-hash spill join — the over-budget hash-join path.

When a hash-join build side outgrows the memory budget, the executor
swaps the in-memory build/probe kernel for the classic grace hash join:
partition both inputs by an independent hash of the join key into a
deterministic fanout of disk buckets, then join each bucket pair
in-memory. Three properties matter:

- **Output equivalence**: every emitted row is tagged with its original
  probe-side index and the merged output is stably re-sorted by it, so
  the spilled join returns rows in *exactly* the order of the in-memory
  columnar build/probe kernel — spilling is invisible to everything
  downstream.
- **Deterministic buckets**: bucket placement re-mixes ``stable_hash``
  through splitmix64, decorrelating it from the shuffle partitioner (a
  shuffled partition holds keys congruent mod the partition count, so
  reusing the same hash would collapse every row into one bucket). The
  same inputs always produce byte-identical bucket files.
- **Row-level kernel**: the executor converts the affected batches to
  row tuples (cells stay term-ID-encoded), since rows are what pickles
  into bucket files; the degraded path deliberately trades vector speed
  for bounded memory.
"""

from __future__ import annotations

import os
import pickle
from operator import itemgetter

from ..engine.data import _mix_int, estimate_row_bytes, stable_hash
from ..errors import ExecutionError

#: XOR'd into ``stable_hash`` before re-mixing so bucket placement is
#: independent of the shuffle partitioner built on the same hash.
_BUCKET_SALT = 0x517CC1B727220A95


class SpillStore:
    """Bucket files for one grace-hash join, under the query's spill dir.

    Writes pickled row lists to ``directory`` and accounts the spilled
    volume into ``metrics.spill_bytes`` using the engine's
    ``estimate_row_bytes`` sizing — the estimate the cost model uses
    everywhere else, so the counter is deterministic (actual pickle sizes
    are not: they depend on object-sharing patterns).

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

    def write(self, name: str, rows: list) -> str:
        """Persist one bucket; returns the file path."""
        path = os.path.join(self.directory, f"{name}.pkl")
        with open(path, "wb") as handle:
            pickle.dump(rows, handle, protocol=4)
        self.paths.append(path)
        return path

    def read(self, path: str) -> list:
        """Load one bucket back."""
        with open(path, "rb") as handle:
            return pickle.load(handle)

    def account_rows(self, rows: list[tuple]) -> None:
        """Charge spilled rows into ``metrics.spill_bytes``."""
        self.metrics.spill_bytes += sum(estimate_row_bytes(row) for row in rows)


def bucket_of(key: tuple, fanout: int) -> int:
    """Deterministic grace-hash bucket for a join key.

    ``stable_hash`` re-mixed through splitmix64: equal keys always share a
    bucket, and placement is independent of the shuffle partitioner.
    """
    return _mix_int(stable_hash(key) ^ _BUCKET_SALT) % fanout


def grace_hash_join(
    left_rows: list[tuple],
    right_rows: list[tuple],
    left_key_idx: list[int],
    right_key_idx: list[int],
    right_keep_idx: list[int],
    how: str,
    fanout: int,
    store: SpillStore,
) -> list[tuple]:
    """Grace-hash join of one partition pair through disk buckets.

    Drop-in replacement for the executor's in-memory build/probe over the
    same pair: identical rows in identical order, with the build held one
    bucket at a time instead of whole. Both sides spill (probe rows tagged
    with their original index), then bucket pairs join in-memory and the
    merged output is stably sorted back into probe order.
    """
    left_buckets: list[list[tuple]] = [[] for _ in range(fanout)]
    for index, row in enumerate(left_rows):
        key = tuple(row[i] for i in left_key_idx)
        left_buckets[bucket_of(key, fanout)].append((index, row))
    right_buckets: list[list[tuple]] = [[] for _ in range(fanout)]
    for row in right_rows:
        key = tuple(row[i] for i in right_key_idx)
        right_buckets[bucket_of(key, fanout)].append(row)

    store.account_rows(left_rows)
    store.account_rows(right_rows)
    bucket_paths = []
    for bucket in range(fanout):
        bucket_paths.append(
            (
                store.write(f"bucket-{bucket:04d}-left", left_buckets[bucket]),
                store.write(f"bucket-{bucket:04d}-right", right_buckets[bucket]),
            )
        )
    # The in-memory buckets are dropped before probing: only one bucket
    # pair is resident at a time — the point of the grace hash.
    del left_buckets, right_buckets

    tagged: list[tuple[int, tuple]] = []
    for left_path, right_path in bucket_paths:
        tagged.extend(
            _probe_bucket(
                store.read(left_path),
                store.read(right_path),
                left_key_idx,
                right_key_idx,
                right_keep_idx,
                how,
            )
        )
    # Stable sort by original probe index: within one probe row the match
    # order is already the build-side insertion order (all equal keys share
    # a bucket), so this reproduces the in-memory kernel's output exactly.
    tagged.sort(key=itemgetter(0))
    return [row for _, row in tagged]


def _row_getter(indexes: list[int]):
    """A row → tuple-of-cells projection (C-level for two or more columns;
    ``itemgetter`` with one index returns a bare cell, so wrap that case)."""
    if not indexes:
        return lambda row: ()
    if len(indexes) == 1:
        index = indexes[0]
        return lambda row: (row[index],)
    return itemgetter(*indexes)


def _probe_bucket(
    left_pairs: list[tuple[int, tuple]],
    right_rows: list[tuple],
    left_key_idx: list[int],
    right_key_idx: list[int],
    right_keep_idx: list[int],
    how: str,
) -> list[tuple[int, tuple]]:
    """Join one bucket pair in memory, tagging outputs with probe indexes.

    Classic build/probe hash join (single-key fast path on the bare cell,
    NULL keys never match, left/semi/anti emission rules) over
    ``(original_index, row)`` probe pairs.
    """
    build: dict = {}
    output: list[tuple[int, tuple]] = []
    if len(left_key_idx) == 1:
        li, ri = left_key_idx[0], right_key_idx[0]
        build_get = build.get
        for row in right_rows:
            key = row[ri]
            if key is not None:
                bucket = build_get(key)
                if bucket is None:
                    build[key] = [row]
                else:
                    bucket.append(row)
        keep = _row_getter(right_keep_idx)
        if how == "inner":
            for index, row in left_pairs:
                matches = build_get(row[li])
                if matches:
                    for match in matches:
                        output.append((index, row + keep(match)))
            return output
        if how == "left":
            nulls = (None,) * len(right_keep_idx)
            for index, row in left_pairs:
                matches = build_get(row[li])
                if matches:
                    for match in matches:
                        output.append((index, row + keep(match)))
                else:
                    output.append((index, row + nulls))
            return output
        if how == "semi":
            return [(index, row) for index, row in left_pairs if build_get(row[li])]
        if how == "anti":
            return [
                (index, row) for index, row in left_pairs if not build_get(row[li])
            ]
        raise ExecutionError(f"unsupported join type {how!r}")
    for row in right_rows:
        key = tuple(row[i] for i in right_key_idx)
        if any(part is None for part in key):
            continue  # SQL semantics: NULL keys never match
        build.setdefault(key, []).append(row)
    for index, row in left_pairs:
        key = tuple(row[i] for i in left_key_idx)
        if any(part is None for part in key):
            matches = None
        else:
            matches = build.get(key)
        if how == "inner":
            if matches:
                for match in matches:
                    output.append((index, row + tuple(match[i] for i in right_keep_idx)))
        elif how == "left":
            if matches:
                for match in matches:
                    output.append((index, row + tuple(match[i] for i in right_keep_idx)))
            else:
                output.append((index, row + tuple(None for _ in right_keep_idx)))
        elif how == "semi":
            if matches:
                output.append((index, row))
        elif how == "anti":
            if not matches:
                output.append((index, row))
        else:
            raise ExecutionError(f"unsupported join type {how!r}")
    return output
