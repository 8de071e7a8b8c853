"""Unit tests for AIPCANDIDATES (Figure 3 of the paper)."""

import pytest

from repro.aip.candidates import aip_candidates
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.translate import translate
from repro.expr.aggregates import MIN, AggregateSpec
from repro.expr.expressions import col
from repro.optimizer.predicate_graph import SourcePredicateGraph
from repro.plan.builder import scan


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.001)


def build(catalog):
    sub = scan(catalog, "partsupp", prefix="m_").group_by(
        ["m_ps_partkey"],
        [AggregateSpec(MIN, col("m_ps_supplycost"), "min_cost")],
    )
    plan = (
        scan(catalog, "part")
        .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
        .join(
            sub,
            on=[("ps_partkey", "m_ps_partkey")],
            residual=col("ps_supplycost").eq(col("min_cost")),
        )
        .build()
    )
    ctx = ExecutionContext(catalog)
    physical = translate(plan, ctx)
    graph = SourcePredicateGraph.from_plan(plan)
    return plan, physical, graph, aip_candidates(physical, graph)


class TestCandidates:
    def test_sources_cover_correlated_attrs(self, catalog):
        _, _, _, index = build(catalog)
        assert "p_partkey" in index.sources
        assert "ps_partkey" in index.sources
        # Aggregate output participates via the residual equality.
        assert "min_cost" in index.sources

    def test_uncorrelated_attr_not_a_source(self, catalog):
        _, _, _, index = build(catalog)
        assert "p_brand" not in index.sources
        # The aggregate *input* must not leak into the eq class.
        assert "m_ps_supplycost" not in index.sources

    def test_groupby_producible_restricted_to_keys_and_outputs(self, catalog):
        plan, physical, graph, index = build(catalog)
        from repro.plan.logical import GroupBy
        gb = next(n for n in plan.walk() if isinstance(n, GroupBy))
        producible = index.producible.get((gb.node_id, 0), [])
        assert "m_ps_partkey" in producible
        assert "min_cost" in producible
        assert "m_ps_supplycost" not in producible

    def test_interested_includes_scans(self, catalog):
        plan, physical, graph, index = build(catalog)
        from repro.plan.logical import Scan
        scan_ids = {
            n.node_id for n in plan.walk()
            if isinstance(n, Scan) and n.table_name == "partsupp"
        }
        interested = index.interested_in(graph, "p_partkey")
        interested_ids = {node_id for node_id, _ in interested}
        assert scan_ids & interested_ids

    def test_party_attr_resolution(self, catalog):
        plan, physical, graph, index = build(catalog)
        for party in index.interested_in(graph, "p_partkey"):
            attr = index.attr_at(graph, party, "p_partkey")
            assert attr is not None
            assert "p_partkey" in graph.eq_class(attr)
