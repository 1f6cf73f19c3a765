"""QueryServer behavior: caches, tenants, admission, EXPLAIN annotation."""

import pytest

from repro.errors import AdmissionRejectedError, ValidationError
from repro.serve import (
    DEFAULT_PLAN_CACHE_SIZE,
    DEFAULT_RESULT_CACHE_SIZE,
    QueryServer,
)

from .conftest import Q_FOLLOWS, Q_FOLLOWS_ISO, Q_STAR, row_keys


class TestPlanCache:
    def test_isomorphic_queries_share_one_plan(self, plan_only_server):
        first = plan_only_server.sparql(Q_FOLLOWS)
        second = plan_only_server.sparql(Q_FOLLOWS_ISO)
        stats = plan_only_server.stats
        assert stats.plan_cache_misses == 1
        assert stats.plan_cache_hits == 1
        assert plan_only_server.plan_cache_len == 1
        assert row_keys(first) == row_keys(second)

    def test_variable_names_stay_per_caller(self, plan_only_server):
        plan_only_server.sparql(Q_FOLLOWS)
        result = plan_only_server.sparql(Q_FOLLOWS_ISO)
        assert result.variables == ("x", "y")

    def test_modifier_variant_shares_the_plan(self, plan_only_server):
        full = plan_only_server.sparql(Q_FOLLOWS)
        limited = plan_only_server.sparql(Q_FOLLOWS + " LIMIT 2")
        assert plan_only_server.stats.plan_cache_hits == 1
        assert len(full) == 3
        assert len(limited) == 2

    def test_cached_plan_rows_match_cold_engine(self, plan_only_server, engine):
        plan_only_server.sparql(Q_STAR)  # miss: populates
        warm = plan_only_server.sparql(Q_STAR)  # hit: cached plan
        assert plan_only_server.stats.plan_cache_hits == 1
        assert row_keys(warm) == row_keys(engine.sparql(Q_STAR))

    def test_disabled_plan_cache_always_plans(self, engine):
        server = QueryServer(engine, plan_cache_size=0, result_cache_size=0)
        server.sparql(Q_FOLLOWS)
        server.sparql(Q_FOLLOWS)
        assert server.stats.plan_cache_misses == 2
        assert server.stats.plan_cache_hits == 0
        assert server.plan_cache_len == 0


class TestResultCache:
    def test_exact_repeat_skips_execution(self, server):
        first = server.sparql(Q_FOLLOWS)
        second = server.sparql(Q_FOLLOWS)
        assert server.stats.result_cache_hits == 1
        # the hit did not re-plan (only the first, miss-path serving did)
        assert server.stats.plan_cache_misses == 1
        assert row_keys(first) == row_keys(second)

    def test_isomorphic_query_hits_with_its_own_names(self, server):
        server.sparql(Q_FOLLOWS)
        iso = server.sparql(Q_FOLLOWS_ISO)
        assert server.stats.result_cache_hits == 1
        assert iso.variables == ("x", "y")
        assert len(iso) == 3


class TestExplain:
    def test_cold_explain_has_no_cache_marker(self, plan_only_server):
        assert "[cached plan]" not in plan_only_server.explain(Q_FOLLOWS)

    def test_explain_annotates_cached_plans(self, plan_only_server):
        plan_only_server.sparql(Q_FOLLOWS)
        text = plan_only_server.explain(Q_FOLLOWS)
        assert "== Join Tree == [cached plan]" in text
        assert "== Engine Plan == [cached plan]" in text

    def test_explain_does_not_perturb_stats(self, plan_only_server):
        plan_only_server.sparql(Q_FOLLOWS)
        before = plan_only_server.stats.to_dict()
        plan_only_server.explain(Q_FOLLOWS)
        assert plan_only_server.stats.to_dict() == before


class TestTenants:
    def test_snapshot_accounts_per_tenant(self, server):
        server.sparql(Q_FOLLOWS, tenant="alice")
        server.sparql(Q_FOLLOWS, tenant="alice")
        server.sparql(Q_FOLLOWS_ISO, tenant="bob")
        snapshot = server.tenant_snapshot()
        assert snapshot["alice"]["admitted"] == 2
        assert snapshot["bob"]["admitted"] == 1
        assert snapshot["alice"]["active"] == 0

    def test_default_tenant_label(self, server):
        server.sparql(Q_FOLLOWS)
        assert "default" in server.tenant_snapshot()

    def test_capped_tenant_is_shed_and_counted(self, engine):
        server = QueryServer(
            engine,
            plan_cache_size=4,
            result_cache_size=4,
            max_queries_per_tenant=1,
        )
        engine.governor.max_queue_depth = 0  # shed immediately, don't queue
        with engine.governor.admit(tenant="alice"):
            with pytest.raises(AdmissionRejectedError):
                server.sparql(Q_FOLLOWS, tenant="alice")
            # other tenants are unaffected by alice's cap
            server.sparql(Q_FOLLOWS, tenant="bob")
        assert server.stats.admission_rejections == 1
        assert server.tenant_snapshot()["alice"]["rejected"] == 1

    def test_cache_hits_still_pass_admission(self, engine):
        server = QueryServer(
            engine,
            plan_cache_size=4,
            result_cache_size=4,
            max_queries_per_tenant=1,
        )
        engine.governor.max_queue_depth = 0
        server.sparql(Q_FOLLOWS, tenant="alice")  # populate the result cache
        with engine.governor.admit(tenant="alice"):
            with pytest.raises(AdmissionRejectedError):
                server.sparql(Q_FOLLOWS, tenant="alice")  # hit, still capped


class TestConfiguration:
    def test_default_capacities(self, engine):
        server = QueryServer(engine)
        assert server._plan_cache.capacity == DEFAULT_PLAN_CACHE_SIZE
        assert server._result_cache.capacity == DEFAULT_RESULT_CACHE_SIZE

    def test_argument_sets_capacity(self, engine):
        assert QueryServer(engine, plan_cache_size=5)._plan_cache.capacity == 5

    def test_negative_capacity_rejected(self, engine):
        with pytest.raises(ValidationError):
            QueryServer(engine, result_cache_size=-1)

    def test_invalid_tenant_cap_rejected(self, engine):
        with pytest.raises(ValidationError):
            QueryServer(engine, max_queries_per_tenant=0)


class TestMetricsSnapshot:
    def test_snapshot_uses_registry_names(self, server):
        from repro.obs import REGISTRY

        server.sparql(Q_FOLLOWS)
        snapshot = server.metrics_snapshot()
        assert snapshot["serve.queries_served"] == 1
        for name in snapshot:
            assert name in REGISTRY, f"snapshot emits unregistered {name}"
