"""ServiceConfig and QueryService's two spellings of it: a config
object, or its fields as keywords."""

import dataclasses

import pytest

from repro.data.tpch import cached_tpch
from repro.service import QueryService, ServiceConfig, TenantQuota
from repro.service.config import coerce_config


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


class TestCoercion:
    def test_defaults(self):
        config = coerce_config(None, {})
        assert config == ServiceConfig()
        assert config.strategy == "feedforward"
        assert config.max_concurrent == 4

    def test_loose_kwargs_fold_into_config(self):
        config = coerce_config(None, {
            "strategy": "costbased", "max_concurrent": 2,
            "result_cache": False,
        })
        assert (config.strategy, config.max_concurrent,
                config.result_cache) == ("costbased", 2, False)

    def test_unknown_kwarg_is_a_typeerror(self):
        with pytest.raises(TypeError, match="max_concurent"):
            coerce_config(None, {"max_concurent": 2})  # typo'd name

    def test_rejects_non_config_object(self):
        with pytest.raises(TypeError, match="must be a ServiceConfig"):
            coerce_config(42, {})
        with pytest.raises(TypeError, match="must be a ServiceConfig"):
            coerce_config("costbased", {})  # no positional strategy

    def test_rejects_config_and_kwargs_together(self):
        with pytest.raises(TypeError, match="not both"):
            coerce_config(ServiceConfig(), {"max_concurrent": 2})

    def test_validation_parallel_with_governor(self):
        with pytest.raises(ValueError, match="memory governor"):
            coerce_config(None, {"parallel": 2, "memory_budget": 1 << 20})

    def test_validation_quota_type(self):
        with pytest.raises(ValueError, match="must be a TenantQuota"):
            ServiceConfig(quotas={"t": 3}).validate()

    @pytest.mark.parametrize(
        "name", ["slo_seconds", "memory_budget_bytes", "slow_query_ms"],
    )
    def test_validation_rejects_negative_budgets(self, name):
        with pytest.raises(ValueError, match="%s must be >= 0" % name):
            ServiceConfig(**{name: -1}).validate()
        assert ServiceConfig(**{name: 0}).validate()  # zero stays legal

    def test_field_inventory_is_stable(self):
        # The accepted keyword set IS the config's field set; a field
        # rename would silently break keyword call sites otherwise.
        names = {f.name for f in dataclasses.fields(ServiceConfig)}
        for name in ("strategy", "scheduler", "memory_budget_bytes",
                     "max_concurrent", "aip_cache", "result_cache",
                     "memory_budget", "tracer", "parallel", "pool",
                     "catalog_spec", "slo_seconds", "quotas"):
            assert name in names
        assert len(names) == 17


class TestTenantQuota:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(max_concurrent=-1)
        with pytest.raises(ValueError):
            TenantQuota(max_state_bytes=-0.5)
        quota = TenantQuota(max_concurrent=2, max_state_bytes=1e6)
        assert (quota.max_concurrent, quota.max_state_bytes) == (2, 1e6)


class TestServiceConstruction:
    def test_service_accepts_config_object(self, catalog):
        config = ServiceConfig(strategy="costbased", max_concurrent=2)
        with QueryService(catalog, config) as service:
            assert service.config is config
            assert service.default_strategy == "costbased"
            assert service.admission.max_concurrent == 2

    def test_service_accepts_legacy_kwargs(self, catalog):
        with QueryService(
            catalog, strategy="costbased", max_concurrent=2,
            result_cache=False,
        ) as service:
            assert service.config.strategy == "costbased"
            assert service.result_cache is None

    def test_same_stream_same_report_both_conventions(self, catalog):
        def run(service):
            with service:
                for text in ("Q1A", "Q2A", "Q1A"):
                    service.submit(text)
                return [
                    (o.label, o.status, o.latency)
                    for o in service.run().outcomes
                ]

        legacy = run(QueryService(catalog, strategy="feedforward",
                                  max_concurrent=2))
        configured = run(QueryService(
            catalog,
            ServiceConfig(strategy="feedforward", max_concurrent=2),
        ))
        assert legacy == configured

    def test_unknown_kwarg_at_the_service_door(self, catalog):
        with pytest.raises(TypeError, match="shceduler"):
            QueryService(catalog, shceduler="fifo")
