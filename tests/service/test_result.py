"""The unified QueryResult: payload round trips and report views."""

import json

import pytest

import repro
from repro.common.errors import ExecutionError
from repro.data.tpch import cached_tpch
from repro.service import QueryService, ServiceConfig
from repro.service.result import (
    QueryResult, columns_of, result_from_outcome, results_from_report,
)


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


@pytest.fixture(scope="module")
def report(catalog):
    with QueryService(catalog, ServiceConfig()) as service:
        service.submit("Q1A", tenant="a")
        service.submit("Q2A", tenant="b")
        service.submit("Q1A", tenant="a")  # cached replay
        return service.run()


class TestPayloadRoundTrip:
    def test_bit_identical_through_json(self, report):
        for outcome in report.outcomes:
            result = outcome.to_result()
            wire = json.loads(json.dumps(result.to_payload()))
            restored = QueryResult.from_payload(wire)
            assert restored == result
            assert restored.to_payload() == result.to_payload()
            assert restored.rows == result.rows
            assert all(isinstance(row, tuple) for row in restored.rows)

    def test_float_fields_survive_exactly(self, report):
        result = report.outcomes[0].to_result()
        wire = json.loads(json.dumps(result.to_payload()))
        assert wire["latency"] == result.latency
        assert wire["metrics"] == result.metrics

    def test_equality_is_payload_equality(self):
        a = QueryResult("q", "ok", [(1, "x")], ("c1", "c2"), 0.5, 0.0)
        b = QueryResult("q", "ok", [(1, "x")], ("c1", "c2"), 0.5, 0.0)
        c = QueryResult("q", "ok", [(2, "x")], ("c1", "c2"), 0.5, 0.0)
        assert a == b
        assert a != c
        assert a != "not a result"


class TestViews:
    def test_outcome_carries_tenant_into_result(self, report):
        results = [o.to_result() for o in report.outcomes]
        assert [r.tenant for r in results] == ["a", "b", "a"]
        assert [r.status for r in results] == ["ok", "ok", "cached"]

    def test_report_results_property(self, report):
        views = report.results
        assert views == results_from_report(report)
        assert all(isinstance(v, QueryResult) for v in views)

    def test_columns_and_lengths(self, report):
        for outcome, view in zip(report.outcomes, report.results):
            assert len(view) == outcome.rows
            assert len(view.columns) > 0
            assert view.sorted_rows() == sorted(view.rows, key=repr)

    def test_require_raises_for_sheds(self):
        shed = QueryResult("q", "shed", [], (), 0.0, 0.0,
                           reason="quota:state")
        with pytest.raises(ExecutionError, match="quota:state"):
            shed.require()
        ok = QueryResult("q", "ok", [], (), 0.0, 0.0)
        assert ok.require() is ok

    def test_columns_of_none_schema(self):
        assert columns_of(None) == ()


class TestPublicExports:
    def test_package_level_names(self):
        # The redesigned public surface: the unified result is THE
        # QueryResult; the engine-internal shape is EngineResult.
        assert repro.QueryResult is QueryResult
        assert repro.EngineResult is not repro.QueryResult
        for name in ("connect", "Client", "InProcessClient",
                     "ServiceConfig", "TenantQuota"):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_result_from_outcome_is_single_construction_point(self, report):
        outcome = report.outcomes[0]
        assert result_from_outcome(outcome) == outcome.to_result()
        assert outcome.to_result().tenant == "a"

    def test_one_record_type_is_exported(self):
        # The queue entry and the outcome are one class; the names it
        # replaced are gone, not aliased.
        import repro.service as service
        from repro.service import result, service as service_module

        assert service.Query is service_module.Query
        for module in (service, service_module, result):
            assert not hasattr(module, "QueryOutcome")
            assert not hasattr(module, "_PendingQuery")
        assert not hasattr(result, "percentile")
