"""Tests for retained query profiles, their est-vs-actual operator
tables, and the profile ring."""

import json
import re

import pytest

from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.engine import Engine
from repro.exec.translate import translate
from repro.obs.profiles import (
    ProfileRing, QueryProfile, operator_table, plan_rows,
)
from repro.optimizer.estimator import CardinalityEstimator
from repro.service import QueryService, ServiceConfig, TenantQuota
from repro.workloads.registry import get_query


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


def make_profile(seq, arrival=0.0, start=1.0, finish=3.0, **kwargs):
    defaults = dict(
        label="Q1A", status="ok", tenant="t", strategy="feedforward",
        signature="sig", batch=1, rows=5,
    )
    defaults.update(kwargs)
    return QueryProfile(
        seq, defaults.pop("label"), defaults.pop("status"),
        defaults.pop("tenant"), defaults.pop("strategy"),
        defaults.pop("signature"), defaults.pop("batch"),
        arrival, start, finish, defaults.pop("rows"), **defaults,
    )


class TestQueryProfile:
    def test_latency_breakdown(self):
        profile = make_profile(1, arrival=2.0, start=5.0, finish=9.0)
        assert profile.latency == 7.0
        assert profile.queue_wait == 3.0
        assert profile.execute_seconds == 4.0

    def test_as_dict_is_json_ready(self):
        profile = make_profile(
            7, operators=[{
                "depth": 1, "operator": "Scan", "label": "scan(part)",
                "est_rows": 10.0, "actual_rows": 12, "tuples_in": 12,
                "pruned": 0,
            }],
            metrics={"cpu_seconds": 0.5},
        )
        payload = json.loads(json.dumps(profile.as_dict()))
        assert payload["seq"] == 7
        assert payload["latency_s"] == 3.0
        assert payload["queue_wait_s"] == 1.0
        assert payload["execute_s"] == 2.0
        assert payload["operators"][0]["operator"] == "Scan"
        assert payload["metrics"] == {"cpu_seconds": 0.5}

    def test_render_includes_operator_table(self):
        profile = make_profile(
            3, operators=[{
                "depth": 0, "operator": "Join", "label": "join(a=b)",
                "est_rows": 100.0, "actual_rows": 42, "tuples_in": 200,
                "pruned": 8,
            }],
        )
        text = profile.render()
        assert "query #3 Q1A [ok]" in text
        assert "join(a=b)" in text
        assert "42" in text

    def test_render_shed_has_reason_no_table(self):
        profile = make_profile(
            4, status="shed", reason="quota:state", rows=0,
        )
        text = profile.render()
        assert "[shed]" in text
        assert "quota:state" in text
        assert "operator" not in text


class TestPlanRows:
    def _walk(self, catalog, qid):
        plan = get_query(qid).build_baseline(catalog)
        ctx = ExecutionContext(catalog)
        physical = translate(plan, ctx)
        ctx.strategy.attach(ctx, physical)
        Engine(ctx).run(physical)
        return plan_rows(physical, ctx.metrics, CardinalityEstimator(catalog))

    def test_pairs_estimates_with_observed_counters(self, catalog):
        rows = self._walk(catalog, "Q1A")
        assert rows[0]["depth"] == 0
        table = operator_table(rows)
        assert 0 < len(table) <= len(rows)
        assert all(row["est_rows"] > 0 for row in table)
        # A scan's input counter is the table it read.
        for row in table:
            if row["operator"] == "Scan":
                name = re.match(r"Scan\((\w+)", row["label"]).group(1)
                assert row["tuples_in"] == len(catalog.table(name).rows)
        assert json.loads(json.dumps(rows)) == rows

    def test_tables_are_structural(self, catalog):
        """Two independently built copies of one query walk to the
        same table: nothing but the label's node id tells them apart."""
        first, second = (
            [dict(row, label=re.sub(r" #\d+$", "", row["label"]))
             for row in operator_table(self._walk(catalog, "Q3A"))]
            for _ in range(2)
        )
        assert first == second


class TestProfileRing:
    def test_capacity_evicts_oldest(self):
        ring = ProfileRing(capacity=3)
        for seq in range(5):
            ring.record(make_profile(seq))
        assert len(ring) == 3
        assert ring.evicted == 2
        assert ring.get(0) is None
        assert ring.get(1) is None
        assert [p.seq for p in ring.last()] == [2, 3, 4]
        assert [p.seq for p in ring.last(2)] == [3, 4]

    def test_rerecord_moves_to_newest(self):
        ring = ProfileRing(capacity=2)
        ring.record(make_profile(1))
        ring.record(make_profile(2))
        ring.record(make_profile(1, finish=9.0))
        ring.record(make_profile(3))
        assert ring.get(2) is None  # 2 was oldest after 1's re-record
        assert ring.get(1).finish == 9.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ProfileRing(capacity=0)


class TestServiceIntegration:
    def test_completed_queries_are_profiled_with_operators(self, catalog):
        with QueryService(catalog, ServiceConfig()) as service:
            seq = service.submit("Q2A", tenant="t", label="Q2A")
            service.run()
            profile = service.profiles.get(seq)
            assert profile is not None
            assert profile.status == "ok"
            assert profile.tenant == "t"
            assert profile.signature
            assert profile.rows > 0
            # Operator attribution: estimates paired with actuals.
            assert profile.operators
            scans = [row for row in profile.operators
                     if row["operator"] == "Scan"]
            assert scans and all(r["actual_rows"] > 0 for r in scans)
            assert all(row["est_rows"] >= 0 for row in profile.operators)
            # The whole payload survives the wire format.
            json.dumps(profile.as_dict())

    def test_shed_queries_are_profiled_too(self, catalog):
        quotas = {"capped": TenantQuota(max_state_bytes=1.0)}
        config = ServiceConfig(quotas=quotas, profile_retention=4)
        with QueryService(catalog, config) as service:
            seq = service.submit("Q2A", tenant="capped")
            service.run()
            profile = service.profiles.get(seq)
            assert profile.status == "shed"
            assert profile.reason == "quota:state"
            assert profile.operators == []

    def test_retention_config_bounds_the_ring(self, catalog):
        config = ServiceConfig(profile_retention=2)
        with QueryService(catalog, config) as service:
            for _ in range(3):
                service.submit("Q1A")
                service.run()
            assert len(service.profiles) == 2
            assert service.profiles.evicted == 1

    def test_slow_query_threshold_counts(self, catalog):
        config = ServiceConfig(slow_query_ms=0.0, result_cache=False)
        with QueryService(catalog, config) as service:
            service.submit("Q1A", tenant="t")
            service.run()
            slow = service.registry.counter("queries.slow")
            assert slow.labels(tenant="t").value == 1
