"""Deterministic grace-hash spill join — the over-budget hash-join path.

When a hash-join build side outgrows the memory budget, the executor
finds its match pairs through the classic grace hash join instead of one
build over the whole right side: both inputs are split by an independent
hash of the join key into a deterministic fanout of disk buckets, and the
kernel joins one bucket pair at a time. It runs once per join, over the
whole relations, like every other kernel. Three properties matter:

- **Output equivalence**: the result is the match pairs ``(out_left,
  out_right)`` the in-memory probe returns, in exactly its order — left
  live order, then build insertion order — so the executor gathers and
  re-bounds both paths with one tail and spilling is invisible to
  everything downstream.
- **Keys only**: a bucket file holds the key cells plus one row tag (the
  probe row's live position, the build row's physical row). Payload
  columns stay resident in the executor's input batches either way, so
  writing them would cost I/O and save no memory.
- **Deterministic buckets**: bucket placement re-mixes ``stable_hash``
  through splitmix64, decorrelating it from the shuffle partitioner (a
  shuffled partition holds keys congruent mod the partition count, so
  reusing the same hash would collapse every row into one bucket). The
  same inputs always produce byte-identical bucket files.

Matching (NULL keys, inner/left emission) is the executor's build/probe,
handed in as ``join_bucket``, so the degraded path cannot drift from the
in-memory one.
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Callable, Sequence
from operator import itemgetter

from ..engine.data import _mix_int, stable_hash
from ..errors import StorageError
from ..vector import ColumnBatch

#: XOR'd into ``stable_hash`` before re-mixing so bucket placement is
#: independent of the shuffle partitioner built on the same hash.
_BUCKET_SALT = 0x517CC1B727220A95


class SpillStore:
    """Bucket files for one grace-hash join, under the query's spill dir.

    Writes pickled column tuples to ``directory``. The spilled volume is
    charged by the executor (``metrics.spill_bytes``), not here.

    Attributes:
        directory: pre-created directory the bucket files land in.
        paths: every file written, for lifecycle tests and cleanup audits.
    """

    __slots__ = ("directory", "paths")

    def __init__(self, directory: str):
        self.directory = directory
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


def bucket_of(key: tuple, fanout: int) -> int:
    """Deterministic grace-hash bucket for a join key.

    ``stable_hash`` re-mixed through splitmix64: equal keys always share a
    bucket, and placement is independent of the shuffle partitioner.
    """
    return _mix_int(stable_hash(key) ^ _BUCKET_SALT) % fanout


def _spill_buckets(
    store: SpillStore,
    side: str,
    key_columns: list[Sequence],
    rows: Sequence[int],
    tags: Sequence[int],
    fanout: int,
) -> list[str]:
    """Write the key cells of ``rows``, each with its tag, as one file per
    bucket of the join key (rows keep their order inside a bucket)."""
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(fanout)]
    for row, tag in zip(rows, tags):
        key = tuple(column[row] for column in key_columns)
        buckets[bucket_of(key, fanout)].append((row, tag))
    # One bucket is gathered, written and dropped at a time.
    return [
        store.write(
            f"bucket-{bucket:04d}-{side}",
            tuple([column[row] for row, _ in members] for column in key_columns)
            + ([tag for _, tag in members],),
        )
        for bucket, members in enumerate(buckets)
    ]


def grace_hash_join(
    left: ColumnBatch,
    right: ColumnBatch,
    left_key_idx: list[int],
    right_key_idx: list[int],
    fanout: int,
    store: SpillStore,
    join_bucket: Callable[[ColumnBatch, ColumnBatch], tuple[list[int], list[int]]],
) -> tuple[list[int], list[int]]:
    """Grace-hash join of ``left`` (probe) and ``right`` (build) through
    disk buckets.

    Returns the match pairs ``(out_left, out_right)`` — physical rows of
    ``left`` and ``right``, ``-1`` on the right marking a left-join miss —
    that the executor's build/probe returns over the whole batches, in the
    same order, with the build held one bucket at a time instead of whole.
    A bucket batch holds the key columns first and the tag column last;
    ``join_bucket`` matches one bucket pair on those key positions and
    returns bucket-local pairs. An ``OSError`` from bucket I/O is raised as
    :class:`~repro.errors.StorageError`, with the ``OSError`` as its cause.
    """
    live = left.live()
    right_live = right.live()
    # Only one bucket pair is resident at a time — the point of the grace
    # hash. Pairs are (probe live position, build physical row).
    width = len(left_key_idx)
    matches: list[tuple[int, int]] = []
    try:
        left_paths = _spill_buckets(
            store, "left", [left.columns[i] for i in left_key_idx], live,
            range(len(live)), fanout,
        )
        right_paths = _spill_buckets(
            store, "right", [right.columns[i] for i in right_key_idx], right_live,
            right_live, fanout,
        )
        for left_path, right_path in zip(left_paths, right_paths):
            left_bucket = store.read(left_path)
            right_bucket = store.read(right_path)
            positions = left_bucket.columns[width]
            build_rows = right_bucket.columns[width]
            bucket_left, bucket_right = join_bucket(left_bucket, right_bucket)
            matches.extend(
                (positions[i], -1 if m < 0 else build_rows[m])
                for i, m in zip(bucket_left, bucket_right)
            )
    except OSError as exc:
        raise StorageError(f"grace-hash spill I/O failed: {exc}") from exc
    # Stable sort by probe position: one probe row's matches all sit in one
    # bucket, already in build insertion order, so this is the in-memory
    # kernel's order exactly.
    matches.sort(key=itemgetter(0))
    return [live[position] for position, _ in matches], [m for _, m in matches]
