"""Simulated HDFS: a namenode with block-placement over virtual datanodes.

The loaders write every table here once, as real bytes split into placed,
replicated blocks, so Table 1's "Size" column is measured on what was
written. Nothing on the query path reads a file back: scans read the
catalog's resident column batches. Paths are slash-separated strings;
directories are implicit, as in HDFS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FileAlreadyExistsError, FileNotFoundInHdfsError, ValidationError
from .blocks import DEFAULT_BLOCK_SIZE, Block, plan_placement, split_into_blocks


@dataclass
class HdfsFile:
    """Namenode metadata plus payload for one file."""

    path: str
    data: bytes
    blocks: list[Block] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.data)


def _normalize(path: str) -> str:
    if not path or path.endswith("/"):
        raise ValidationError(f"invalid HDFS file path: {path!r}")
    return "/" + path.strip("/")


class SimulatedHdfs:
    """A single-namespace simulated HDFS cluster.

    Args:
        num_datanodes: number of storage nodes in the cluster.
        block_size: file split granularity in bytes.
        replication: copies kept per block (capped at ``num_datanodes``).
    """

    def __init__(
        self,
        num_datanodes: int = 9,
        block_size: int = DEFAULT_BLOCK_SIZE,
        replication: int = 3,
    ):
        if num_datanodes <= 0:
            raise ValidationError("num_datanodes must be positive")
        if replication <= 0:
            raise ValidationError("replication must be positive")
        self.num_datanodes = num_datanodes
        self.block_size = block_size
        self.replication = min(replication, num_datanodes)
        self._files: dict[str, HdfsFile] = {}
        self._next_block_id = 0

    # -- writing -------------------------------------------------------------

    def write(
        self, path: str, data: bytes, preferred_node: int | None = None, overwrite: bool = False
    ) -> HdfsFile:
        """Create a file, splitting the payload into placed, replicated blocks.

        Args:
            path: target path; parents are implicit.
            data: full payload.
            preferred_node: pin the primary replica of every block to a node
                (models a writer task running on that node).
            overwrite: replace an existing file instead of failing.

        Raises:
            FileAlreadyExistsError: path exists and ``overwrite`` is false.
        """
        path = _normalize(path)
        if path in self._files and not overwrite:
            raise FileAlreadyExistsError(path)
        blocks = []
        for size in split_into_blocks(len(data), self.block_size):
            replicas = plan_placement(
                self._next_block_id, self.num_datanodes, self.replication, preferred_node
            )
            blocks.append(Block(self._next_block_id, size, replicas))
            self._next_block_id += 1
        file = HdfsFile(path=path, data=data, blocks=blocks)
        self._files[path] = file
        return file

    # -- reading -------------------------------------------------------------

    def read(self, path: str) -> bytes:
        """Return a file's full payload.

        Raises:
            FileNotFoundInHdfsError: when the path does not exist.
        """
        return self._require(path).data

    def exists(self, path: str) -> bool:
        try:
            return _normalize(path) in self._files
        except ValueError:
            return False

    def file_info(self, path: str) -> HdfsFile:
        """Namenode metadata for one file (blocks, size, locations)."""
        return self._require(path)

    def list_files(self, prefix: str = "/") -> list[str]:
        """All file paths under a directory prefix, sorted."""
        prefix = "/" + prefix.strip("/")
        if prefix == "/":
            return sorted(self._files)
        return sorted(
            p for p in self._files if p == prefix or p.startswith(prefix + "/")
        )

    # -- accounting ------------------------------------------------------------

    def logical_size(self, prefix: str = "/") -> int:
        """Bytes stored under a prefix, *before* replication (what ``hdfs dfs
        -du`` reports and what the paper's Table 1 sizes mean)."""
        return sum(self._files[p].size for p in self.list_files(prefix))

    def physical_size(self, prefix: str = "/") -> int:
        """Bytes stored under a prefix including all replicas."""
        return sum(
            block.size * len(block.replicas)
            for path in self.list_files(prefix)
            for block in self._files[path].blocks
        )

    def _require(self, path: str) -> HdfsFile:
        path = _normalize(path)
        file = self._files.get(path)
        if file is None:
            raise FileNotFoundInHdfsError(path)
        return file

    def __repr__(self) -> str:
        return (
            f"SimulatedHdfs({self.num_datanodes} nodes, "
            f"{len(self._files)} files, {self.logical_size()} bytes)"
        )
