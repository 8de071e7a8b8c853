"""Tests for cardinality estimation."""

import pytest

from repro.data.tpch import cached_tpch
from repro.expr.aggregates import SUM, AggregateSpec
from repro.expr.expressions import col, lit
from repro.optimizer.estimator import CardinalityEstimator
from repro.plan.builder import scan


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


@pytest.fixture()
def estimator(catalog):
    return CardinalityEstimator(catalog)


class TestScanEstimates:
    def test_scan_rows_exact(self, catalog, estimator):
        plan = scan(catalog, "part").build()
        est = estimator.estimate(plan)
        assert est.rows == len(catalog.table("part"))

    def test_scan_distinct_from_stats(self, catalog, estimator):
        plan = scan(catalog, "part").build()
        est = estimator.estimate(plan)
        assert est.distinct_of("p_partkey") == len(catalog.table("part"))
        assert est.distinct_of("p_size") <= 50

    def test_renamed_scan_keeps_stats(self, catalog, estimator):
        plan = scan(catalog, "partsupp", prefix="x_").build()
        est = estimator.estimate(plan)
        assert est.rows == len(catalog.table("partsupp"))
        assert est.distinct_of("x_ps_partkey") == len(
            set(catalog.table("partsupp").column("ps_partkey"))
        )


class TestFilterEstimates:
    def test_equality_uses_distinct(self, catalog, estimator):
        plan = scan(catalog, "part").filter(col("p_size").eq(1)).build()
        est = estimator.estimate(plan)
        n_parts = len(catalog.table("part"))
        actual = len([s for s in catalog.table("part").column("p_size") if s == 1])
        # 1/distinct(p_size) should be within 3x of truth on uniform data.
        assert est.rows == pytest.approx(actual, rel=3.0)
        assert est.rows < n_parts * 0.1

    def test_range_interpolation_numeric(self, catalog, estimator):
        plan = scan(catalog, "part").filter(col("p_size").le(25)).build()
        est = estimator.estimate(plan)
        frac = est.rows / len(catalog.table("part"))
        assert 0.3 < frac < 0.7

    def test_range_interpolation_dates(self, catalog, estimator):
        plan = (
            scan(catalog, "orders")
            .filter(col("o_orderdate").ge("1995-01-01"))
            .build()
        )
        est = estimator.estimate(plan)
        frac = est.rows / len(catalog.table("orders"))
        # Dates span 1992-01-01 .. 1998-08-02; >= 1995 is roughly half.
        assert 0.35 < frac < 0.7

    def test_conjunction_multiplies(self, catalog, estimator):
        single = scan(catalog, "part").filter(col("p_size").eq(1)).build()
        double = (
            scan(catalog, "part")
            .filter(col("p_size").eq(1))
            .filter(col("p_brand").eq("Brand#34"))
            .build()
        )
        assert estimator.estimate(double).rows < estimator.estimate(single).rows

    def test_like_selectivity(self, catalog, estimator):
        plan = scan(catalog, "part").filter(col("p_type").like("%TIN")).build()
        est = estimator.estimate(plan)
        frac = est.rows / len(catalog.table("part"))
        assert 0.1 < frac < 0.35


class TestJoinEstimates:
    def test_fk_join_cardinality(self, catalog, estimator):
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        est = estimator.estimate(plan)
        actual = len(catalog.table("partsupp"))
        assert est.rows == pytest.approx(actual, rel=0.5)

    def test_join_distinct_capped_by_rows(self, catalog, estimator):
        plan = (
            scan(catalog, "part")
            .filter(col("p_size").eq(1))
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        est = estimator.estimate(plan)
        assert est.distinct_of("ps_partkey") <= max(est.rows, 1.0)


class TestAggregateEstimates:
    def test_group_by_rows_is_group_count(self, catalog, estimator):
        plan = (
            scan(catalog, "partsupp")
            .group_by(
                ["ps_partkey"],
                [AggregateSpec(SUM, col("ps_availqty"), "avail")],
            )
            .build()
        )
        est = estimator.estimate(plan)
        actual_groups = len(set(catalog.table("partsupp").column("ps_partkey")))
        assert est.rows == pytest.approx(actual_groups, rel=0.2)

    def test_distinct_estimate(self, catalog, estimator):
        plan = (
            scan(catalog, "partsupp").project(["ps_partkey"]).distinct().build()
        )
        est = estimator.estimate(plan)
        actual = len(set(catalog.table("partsupp").column("ps_partkey")))
        assert est.rows == pytest.approx(actual, rel=0.2)


class TestSemijoinEstimates:
    def test_semijoin_reduces(self, catalog, estimator):
        source = (
            scan(catalog, "part")
            .filter(col("p_size").eq(1))
            .project(["p_partkey"])
        )
        plan = (
            scan(catalog, "partsupp")
            .semijoin(source, on=[("ps_partkey", "p_partkey")])
            .build()
        )
        est = estimator.estimate(plan)
        assert est.rows < len(catalog.table("partsupp")) * 0.2


class TestObservations:
    def test_complete_observation_overrides(self, catalog, estimator):
        plan = scan(catalog, "part").filter(col("p_size").eq(1)).build()
        estimator.observe(plan.node_id, 7, complete=True)
        assert estimator.estimate(plan).rows == 7

    def test_partial_observation_is_lower_bound(self, catalog, estimator):
        plan = scan(catalog, "part").filter(col("p_size").eq(1)).build()
        big = int(estimator.estimate(plan).rows * 10)
        estimator.observe(plan.node_id, big, complete=False)
        assert estimator.estimate(plan).rows >= big

    def test_observation_propagates_upward(self, catalog, estimator):
        child = scan(catalog, "part").filter(col("p_size").eq(1))
        plan = child.join(
            scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")]
        ).build()
        before = estimator.estimate(plan).rows
        estimator.observe(child.node.node_id, 1, complete=True)
        after = estimator.estimate(plan).rows
        assert after < before
