"""Simulated HDFS tests: namespace, blocks, replication, accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FileAlreadyExistsError, FileNotFoundInHdfsError
from repro.hdfs import SimulatedHdfs


def make_fs(**kwargs) -> SimulatedHdfs:
    defaults = {"num_datanodes": 4, "block_size": 64, "replication": 2}
    defaults.update(kwargs)
    return SimulatedHdfs(**defaults)


class TestReadWrite:
    def test_round_trip(self):
        fs = make_fs()
        fs.write("/data/a.bin", b"hello world")
        assert fs.read("/data/a.bin") == b"hello world"

    def test_paths_are_normalized(self):
        fs = make_fs()
        fs.write("data/a.bin", b"x")
        assert fs.exists("/data/a.bin")
        assert fs.read("/data/a.bin") == b"x"

    def test_overwrite_requires_flag(self):
        fs = make_fs()
        fs.write("/a", b"1")
        with pytest.raises(FileAlreadyExistsError):
            fs.write("/a", b"2")
        fs.write("/a", b"2", overwrite=True)
        assert fs.read("/a") == b"2"

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundInHdfsError):
            make_fs().read("/nope")

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError):
            make_fs().write("/dir/", b"x")


class TestBlocks:
    def test_file_split_into_blocks(self):
        fs = make_fs(block_size=10)
        fs.write("/big", b"x" * 25)
        info = fs.file_info("/big")
        assert [b.size for b in info.blocks] == [10, 10, 5]

    def test_block_locations_replicated(self):
        fs = make_fs(replication=2)
        fs.write("/a", b"x" * 100)
        for block in fs.file_info("/a").blocks:
            assert len(block.replicas) == 2
            assert len(set(block.replicas)) == 2

    def test_preferred_node_pins_primaries(self):
        fs = make_fs(block_size=8)
        fs.write("/a", b"x" * 30, preferred_node=3)
        assert all(b.primary_node == 3 for b in fs.file_info("/a").blocks)


class TestAccounting:
    def test_logical_vs_physical_size(self):
        fs = make_fs(replication=2)
        fs.write("/a", b"x" * 100)
        assert fs.logical_size() == 100
        assert fs.physical_size() == 200

    def test_prefix_scoped_sizes(self):
        fs = make_fs()
        fs.write("/t/a", b"x" * 10)
        fs.write("/u/b", b"x" * 20)
        assert fs.logical_size("/t") == 10
        assert fs.logical_size("/u") == 20

    def test_node_usage_covers_all_replicas(self):
        fs = make_fs(replication=2, block_size=16)
        fs.write("/a", b"x" * 64)
        usage = {node: 0 for node in range(fs.num_datanodes)}
        for block in fs.file_info("/a").blocks:
            for node in block.replicas:
                usage[node] += block.size
        assert sum(usage.values()) == fs.physical_size()
        assert all(usage.values())  # replicas spread over every datanode

    def test_list_files_sorted(self):
        fs = make_fs()
        fs.write("/b", b"1")
        fs.write("/a", b"1")
        fs.write("/t/c", b"1")
        assert fs.list_files() == ["/a", "/b", "/t/c"]
        assert fs.list_files("/t") == ["/t/c"]


@given(st.binary(max_size=500), st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_property_any_payload_round_trips(payload, block_size):
    """Payloads of any size and block granularity round-trip exactly."""
    fs = SimulatedHdfs(num_datanodes=3, block_size=block_size)
    fs.write("/p", payload)
    assert fs.read("/p") == payload
    assert fs.logical_size() == len(payload)
    assert sum(b.size for b in fs.file_info("/p").blocks) == len(payload)
