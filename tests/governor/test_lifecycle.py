"""Spill-file lifecycle: creation under ``spill_dir``, determinism, cleanup.

Spill files are per-query scratch state. The contract exercised here:

- a budgeted query that spills writes its bucket files under the
  configured ``spill_dir`` (system temp dir when unset);
- the per-query directory is removed when the query finishes — on
  success, on timeout, on a mid-query executor failure and on a failed
  bucket read alike (the session's ``finally`` owns this);
- relative spill paths and file bytes are identical across reruns of
  the same query, which is what makes governed chaos runs replayable;
- governance off means no per-query governor state at all.
"""

import os

import pytest

from repro.core.prost import ProstEngine
from repro.engine import ClusterConfig, ExecutionMetrics
from repro.engine.cluster import SimulatedCluster
from repro.errors import ExecutionError, QueryTimeoutError, ReproError
from repro.governor import GovernorContext, SpillStore, governor_context_for
from repro.rdf.graph import Graph

NTRIPLES = """\
<http://x/a> <http://x/p> <http://x/m1> .
<http://x/b> <http://x/p> <http://x/m2> .
<http://x/c> <http://x/p> <http://x/m3> .
<http://x/m1> <http://x/q> <http://x/o1> .
<http://x/m2> <http://x/q> <http://x/o2> .
<http://x/m3> <http://x/q> <http://x/o3> .
"""

JOIN_QUERY = "SELECT ?s ?o WHERE { ?s <http://x/p> ?m . ?m <http://x/q> ?o }"


def _engine(**config_kwargs) -> ProstEngine:
    engine = ProstEngine(
        cluster_config=ClusterConfig(num_workers=2, **config_kwargs)
    )
    engine.load(Graph.from_ntriples(NTRIPLES))
    return engine


def _capture_spills(monkeypatch):
    """Snapshot every query's spill files at cleanup time.

    ``cleanup`` runs in the session's ``finally`` before control returns to
    the test, so this is the only window in which the files still exist.
    Paths are recorded relative to the per-query directory because its
    ``mkdtemp`` name is intentionally unique per run.
    """
    captured: list[list[tuple[str, bytes]]] = []
    original = GovernorContext.cleanup

    def capturing(self):
        if self._query_spill_dir is not None:
            snapshot = sorted(
                (os.path.relpath(path, self._query_spill_dir), _read(path))
                for path in self.spill_paths
            )
            captured.append(snapshot)
        original(self)

    def _read(path):
        with open(path, "rb") as handle:
            return handle.read()

    monkeypatch.setattr(GovernorContext, "cleanup", capturing)
    return captured


class TestSpillDirectory:
    def test_budgeted_query_spills_under_the_configured_dir(
        self, tmp_path, monkeypatch
    ):
        captured = _capture_spills(monkeypatch)
        engine = _engine(memory_budget_bytes=64, spill_dir=str(tmp_path))
        engine.sparql(JOIN_QUERY)
        assert engine.session.cluster.session_metrics.spills > 0
        assert captured and captured[-1], "query never wrote a spill file"
        for relative, _ in captured[-1]:
            assert relative.startswith("spill-")
            assert relative.endswith(".pkl")

    def test_spill_files_are_removed_on_success(self, tmp_path):
        engine = _engine(memory_budget_bytes=64, spill_dir=str(tmp_path))
        engine.sparql(JOIN_QUERY)
        assert engine.session.cluster.session_metrics.spills > 0
        assert list(tmp_path.iterdir()) == []

    def test_spill_files_are_removed_on_timeout(self, tmp_path):
        engine = _engine(
            memory_budget_bytes=64,
            query_timeout_sec=1e-9,
            spill_dir=str(tmp_path),
        )
        with pytest.raises(QueryTimeoutError) as info:
            engine.sparql(JOIN_QUERY)
        assert isinstance(info.value.metrics, ExecutionMetrics)
        assert list(tmp_path.iterdir()) == []

    def test_spill_files_are_removed_on_executor_failure(
        self, tmp_path, monkeypatch
    ):
        engine = _engine(memory_budget_bytes=64, spill_dir=str(tmp_path))
        executor = engine.session._executor
        original = type(executor).execute

        def failing(self, plan, metrics, tracer=None):
            governor = metrics.governor
            store = governor.new_spill_store()
            store.write("bucket-0000-left", [("orphan",)])
            assert os.path.exists(store.paths[0])
            raise ExecutionError("injected mid-query failure")

        monkeypatch.setattr(type(executor), "execute", failing)
        with pytest.raises(ExecutionError, match="injected mid-query"):
            engine.sparql(JOIN_QUERY)
        assert list(tmp_path.iterdir()) == []

    def test_spill_files_are_removed_when_a_bucket_read_fails(
        self, tmp_path, monkeypatch
    ):
        # The second read is the first bucket pair's right file: every
        # bucket of the join is on disk when the I/O error strikes.
        engine = _engine(memory_budget_bytes=64, spill_dir=str(tmp_path))
        original = SpillStore.read
        reads: list[str] = []

        def failing_read(self, path):
            reads.append(path)
            if len(reads) == 2:
                assert len(self.paths) > 2
                raise OSError("injected bucket read failure")
            return original(self, path)

        monkeypatch.setattr(SpillStore, "read", failing_read)
        # The I/O error reaches the caller typed, and keeps the OSError.
        with pytest.raises(ReproError) as info:
            engine.sparql(JOIN_QUERY)
        cause = info.value.__cause__
        assert type(cause) is OSError
        assert str(cause) == "injected bucket read failure"
        assert len(reads) == 2
        assert list(tmp_path.iterdir()) == []

    def test_cleanup_is_idempotent(self, tmp_path):
        context = GovernorContext(budget_bytes=64, spill_root=str(tmp_path))
        store = context.new_spill_store()
        store.write("bucket-0000-left", [("a",)])
        assert context.spill_paths
        context.cleanup()
        context.cleanup()
        assert list(tmp_path.iterdir()) == []


class TestDeterminism:
    def test_bucket_contents_are_identical_across_query_reruns(
        self, tmp_path, monkeypatch
    ):
        captured = _capture_spills(monkeypatch)
        for run in ("first", "second"):
            engine = _engine(
                memory_budget_bytes=64, spill_dir=str(tmp_path / run)
            )
            engine.sparql(JOIN_QUERY)
        assert len(captured) == 2
        assert captured[0] == captured[1]
        assert captured[0], "reruns never spilled"


class TestConfiguration:
    def test_no_governor_state_when_unconfigured(self):
        cluster = SimulatedCluster(ClusterConfig(num_workers=2))
        assert cluster.new_query_metrics().governor is None

    def test_config_fields_create_a_governor_context(self):
        context = governor_context_for(
            ClusterConfig(
                num_workers=2, memory_budget_bytes=65536, query_timeout_sec=30
            )
        )
        assert context is not None
        assert context.budget.limit_bytes == 65536
        assert context.deadline.timeout_sec == 30.0
