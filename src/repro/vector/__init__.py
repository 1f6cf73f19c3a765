"""Column-vector batch abstraction for the data plane.

See :mod:`repro.vector.batch` for the format; the physical operators that
consume these batches live in :mod:`repro.engine.executor`.
"""

from .batch import (
    ColumnBatch,
    batch_bytes,
    estimate_batch_bytes,
    pack_ints,
    row_bytes_vector,
)

__all__ = [
    "ColumnBatch",
    "batch_bytes",
    "estimate_batch_bytes",
    "pack_ints",
    "row_bytes_vector",
]
