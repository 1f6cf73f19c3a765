"""Ablation — run-length/dictionary encoding of the Property Table (§3.1).

The paper's answer to the PT's "very large number of NULLs" is storing it in
Parquet, "a format that uses run-length encoding". Loading the same PT with
the encoder restricted to PLAIN shows what that buys: the NULL-heavy wide
table must blow up by a large factor, while VP tables (dense, two columns)
gain much less.
"""

from repro.core.loader import load_prost_store
from repro.engine import EngineSession, SimulatedCluster


def test_ablation_property_table_encoding(suite, save_artifact):
    def load_both():
        # Page compression off in both arms, so the comparison isolates the
        # RLE/dictionary encodings themselves.
        encoded_session = EngineSession(SimulatedCluster(suite.cluster_config()))
        encoded = load_prost_store(
            suite.dataset.graph, session=encoded_session, compress_pages=False
        )
        plain_session = EngineSession(SimulatedCluster(suite.cluster_config()))
        plain = load_prost_store(
            suite.dataset.graph,
            session=plain_session,
            allowed_encodings=("plain",),
            compress_pages=False,
        )
        return encoded, plain

    encoded, plain = load_both()

    def table_bytes(store, table_name):
        return store.session.catalog.get(table_name).file_stats.total_bytes

    pt_encoded = table_bytes(encoded, "property_table")
    pt_plain = table_bytes(plain, "property_table")
    vp_encoded = sum(
        table_bytes(encoded, info.table_name) for info in encoded.vp_tables.values()
    )
    vp_plain = sum(
        table_bytes(plain, info.table_name) for info in plain.vp_tables.values()
    )

    def sparse_column_bytes(store) -> int:
        """Bytes of PT columns that are >80% NULL (the paper's concern)."""
        stats = store.session.catalog.get("property_table").file_stats
        return sum(
            chunk.encoded_bytes
            for chunk in stats.chunks
            if chunk.num_values and chunk.null_count / chunk.num_values > 0.8
        )

    sparse_encoded = sparse_column_bytes(encoded)
    sparse_plain = sparse_column_bytes(plain)

    save_artifact(
        "ablation_encoding",
        "Ablation: columnar encodings, page compression off (RLE/dict vs plain)\n"
        f"{'table':<22}{'encoded':>12}{'plain':>12}{'ratio':>8}\n"
        f"{'Property Table':<22}{pt_encoded:>12,}{pt_plain:>12,}"
        f"{pt_plain / pt_encoded:>8.2f}\n"
        f"{'PT sparse columns':<22}{sparse_encoded:>12,}{sparse_plain:>12,}"
        f"{sparse_plain / sparse_encoded:>8.2f}\n"
        f"{'VP (all tables)':<22}{vp_encoded:>12,}{vp_plain:>12,}"
        f"{vp_plain / vp_encoded:>8.2f}",
    )

    # RLE/dictionary must pay off on the whole PT...
    assert pt_encoded < pt_plain
    # ... and most of all on its mostly-NULL columns — the paper's §3.1
    # rationale for storing the PT in a run-length-encoded format.
    assert sparse_plain / sparse_encoded > 1.4
    assert sparse_plain / sparse_encoded > pt_plain / pt_encoded
