"""Tests for plan costing."""

import pytest

from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.expr.aggregates import SUM, AggregateSpec
from repro.expr.expressions import col
from repro.optimizer.cost import PlanCoster
from repro.plan.builder import scan


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


@pytest.fixture()
def coster(catalog):
    return PlanCoster(catalog)


class TestLocalCosts:
    def test_scan_cost_scales_with_rows(self, catalog, coster):
        small = scan(catalog, "region").build()
        large = scan(catalog, "lineitem").build()
        assert coster.local_cost(large) > coster.local_cost(small)

    def test_total_includes_children(self, catalog, coster):
        plan = scan(catalog, "part").filter(col("p_size").eq(1)).build()
        assert coster.total_cost(plan) > coster.local_cost(plan)

    def test_join_cost_positive(self, catalog, coster):
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        assert coster.local_cost(plan) > 0

    def test_filtered_join_cheaper(self, catalog, coster):
        full = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        filtered = (
            scan(catalog, "part")
            .filter(col("p_size").eq(1))
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        assert coster.local_cost(filtered) < coster.local_cost(full)

    def test_group_by_cost(self, catalog, coster):
        plan = (
            scan(catalog, "partsupp")
            .group_by(
                ["ps_partkey"],
                [AggregateSpec(SUM, col("ps_availqty"), "avail")],
            )
            .build()
        )
        assert coster.local_cost(plan) > 0


class TestCalibration:
    def test_predicted_cost_tracks_engine_time(self, catalog):
        """The coster and the engine share constants; predictions should
        land within a small factor of actual virtual CPU time."""
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .group_by(
                ["p_brand"],
                [AggregateSpec(SUM, col("ps_availqty"), "avail")],
            )
            .build()
        )
        coster = PlanCoster(catalog)
        predicted = coster.total_cost(plan)
        ctx = ExecutionContext(catalog)
        result = execute_plan(plan, ctx)
        actual = result.metrics.cpu_time
        assert predicted == pytest.approx(actual, rel=1.0)

    def test_helper_pieces(self, catalog, coster):
        assert coster.join_local_cost(100, 100, 10) > 0
        assert coster.aip_build_cost(500) > 0
        plan = scan(catalog, "part").build()
        assert coster.state_bytes(plan) > 0
