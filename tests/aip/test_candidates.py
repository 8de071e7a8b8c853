"""Unit tests for AIPCANDIDATES (Figure 3 of the paper)."""

import pytest

from repro.aip.candidates import aip_candidates
from repro.aip.feedforward import FeedForwardStrategy
from repro.aip.registry import AIPRegistry
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.exec.operators.scan import PScan
from repro.exec.translate import translate
from repro.expr.aggregates import COUNT, MIN, AggregateSpec
from repro.expr.expressions import col
from repro.optimizer.predicate_graph import SourcePredicateGraph
from repro.plan.builder import scan
from repro.workloads.registry import QUERIES, get_query


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


def table_i_plans():
    """All 34 Table I plans: 19 baseline and 15 magic-sets."""
    for qid in sorted(QUERIES):
        query = get_query(qid)
        catalog = cached_tpch(scale_factor=0.001, skew=query.skew)
        yield qid, "baseline", query.build_baseline(catalog), catalog
        if query.has_magic:
            yield qid, "magic", query.build(catalog, magic=True), catalog


class TestInterestPruning:
    def test_every_produced_class_has_an_interested_scan(self):
        """Why Feed-Forward's interest pruning never fires on Table I:
        scans register interest in every output column equated
        elsewhere, and every class with a producer holds some scan's
        column, so ``eliminate_unwanted_candidates`` drops nothing."""
        plans = 0
        for qid, kind, plan, catalog in table_i_plans():
            physical = translate(plan, ExecutionContext(catalog))
            graph = SourcePredicateGraph.from_plan(plan)
            index = aip_candidates(physical, graph)
            roots = {graph.eq.find(attr) for attr in index.sources}
            for root in roots:
                assert any(
                    isinstance(physical.by_node_id[node_id], PScan)
                    for node_id, _port in index.interested[root]
                ), (qid, kind, root)
            registry = AIPRegistry(graph)
            registry.seed(index)
            assert registry.eliminate_unwanted_candidates() == roots
            plans += 1
        assert plans == 34

    def test_a_class_of_computed_columns_is_pruned(self, catalog):
        """The pass fires on a class made only of computed columns:
        ``{a, b}`` below has one party, the group-by's input, which
        both produces it and is the only one interested in it.  Its
        working set is never built, with the same rows and less state
        (1,960 against 4,456 bytes at this scale)."""
        def build():
            return (
                scan(catalog, "part")
                .project([
                    "p_partkey",
                    ("a", col("p_size") + 0),
                    ("b", col("p_size") * 1),
                ])
                .filter(col("a").eq(col("b")))
                .group_by(["a"], [AggregateSpec(COUNT, None, "n")])
                .build()
            )

        plan = build()
        physical = translate(plan, ExecutionContext(catalog))
        graph = SourcePredicateGraph.from_plan(plan)
        index = aip_candidates(physical, graph)
        assert {graph.eq.find(attr) for attr in index.sources} == {
            graph.eq.find("a")
        }
        registry = AIPRegistry(graph)
        registry.seed(index)
        assert registry.eliminate_unwanted_candidates() == set()
        assert not registry.is_wanted("a")

        def run(prune):
            strategy = FeedForwardStrategy(prune_uninterested=prune)
            return execute_plan(
                build(), ExecutionContext(catalog, strategy=strategy)
            )

        pruned, kept = run(True), run(False)
        assert pruned.rows
        assert pruned.sorted_rows() == kept.sorted_rows()
        assert pruned.metrics.peak_state_bytes < kept.metrics.peak_state_bytes
