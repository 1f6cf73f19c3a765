"""Catalog tests: registration, lookup, scan-byte accounting."""

import pytest

from repro.columnar import ColumnSchema, TableSchema
from repro.engine import ClusterConfig, EngineSession, SimulatedCluster
from repro.engine.catalog import Catalog, StoredTable
from repro.engine.data import ColumnarData
from repro.errors import CatalogError

KV = TableSchema([ColumnSchema("s", "string"), ColumnSchema("o", "string")])


def stored(name: str = "t") -> StoredTable:
    return StoredTable(name=name, data=ColumnarData.from_rows(KV, [("a", "b")], 1))


class TestCatalog:
    def test_register_and_get(self):
        catalog = Catalog()
        table = stored()
        catalog.register(table)
        assert catalog.get("t") is table
        assert catalog.has("t")
        assert catalog.names() == ["t"]

    def test_duplicate_rejected_unless_replace(self):
        catalog = Catalog()
        catalog.register(stored())
        with pytest.raises(CatalogError):
            catalog.register(stored())
        catalog.register(stored(), replace=True)

    def test_unknown_lookup_rejected(self):
        with pytest.raises(CatalogError):
            Catalog().get("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.register(stored())
        catalog.drop("t")
        assert not catalog.has("t")
        with pytest.raises(CatalogError):
            catalog.drop("t")


class TestScanBytes:
    def test_persisted_table_uses_chunk_sizes(self):
        session = EngineSession(SimulatedCluster(ClusterConfig(num_workers=2)))
        rows = [("subject" * 5, "object" * 5)] * 100
        table = session.register_rows("t", KV, rows, persist_path="/t")
        full = table.scan_bytes()
        pruned = table.scan_bytes(columns=("s",))
        assert 0 < pruned < full

    def test_unpersisted_table_estimates(self):
        table = stored()
        assert table.scan_bytes() > 0
        assert table.scan_bytes(columns=("s",)) <= table.scan_bytes()

    def test_total_stored_bytes_sums_persisted_only(self):
        session = EngineSession(SimulatedCluster(ClusterConfig(num_workers=2)))
        session.register_rows("a", KV, [("x", "y")], persist_path="/a")
        session.register_rows("b", KV, [("x", "y")])
        total = session.catalog.total_stored_bytes()
        assert total == session.catalog.get("a").file_stats.total_bytes
