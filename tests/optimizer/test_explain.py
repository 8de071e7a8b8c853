"""Tests for EXPLAIN output."""

import pytest

from repro.data.tpch import cached_tpch
from repro.expr.expressions import col
from repro.optimizer.explain import explain
from repro.plan.builder import scan
from repro.workloads.registry import get_query


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.001)


class TestExplain:
    def test_contains_operators_and_estimates(self, catalog):
        plan = (
            scan(catalog, "part")
            .filter(col("p_size").eq(1))
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        text = explain(plan, catalog)
        assert "Scan(part" in text
        assert "Filter" in text
        assert "Join" in text
        assert "total estimated cost" in text

    def test_workload_query_explains(self, catalog):
        plan = get_query("Q1A").build_baseline(catalog)
        text = explain(plan, catalog)
        assert "GroupBy" in text
        assert text.count("\n") > 10

    def test_shared_nodes_marked(self, catalog):
        plan = get_query("Q1A").build(catalog, magic=True)
        text = explain(plan, catalog)
        assert "(shared)" in text

    def test_estimates_are_finite(self, catalog):
        plan = get_query("Q5A").build_baseline(catalog)
        text = explain(plan, catalog)
        assert "inf" not in text
        assert "nan" not in text
