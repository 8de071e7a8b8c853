"""Tests for the source-predicate graph and EQ closure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.tpch import cached_tpch
from repro.expr.aggregates import SUM, AggregateSpec
from repro.expr.expressions import col
from repro.optimizer.predicate_graph import SourcePredicateGraph, UnionFind
from repro.plan.builder import scan


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.001)


class TestUnionFind:
    def test_basics(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert "c" in uf.members("a")
        assert "d" not in uf.members("a")
        assert uf.members("a") == {"a", "b", "c"}

    def test_groups(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("x", "y")
        groups = {frozenset(g) for g in uf.groups()}
        assert frozenset({"a", "b"}) in groups
        assert frozenset({"x", "y"}) in groups

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20))))
    @settings(max_examples=50, deadline=None)
    def test_transitivity_property(self, pairs):
        uf = UnionFind()
        for a, b in pairs:
            uf.union(a, b)
        # Reachability in the union graph implies same-set membership.
        for a, b in pairs:
            assert b in uf.members(a)


class TestFromPlan:
    def test_join_keys_equated(self, catalog):
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        graph = SourcePredicateGraph.from_plan(plan)
        assert "ps_partkey" in graph.eq_class("p_partkey")

    def test_transitive_closure_across_joins(self, catalog):
        ps2 = scan(catalog, "partsupp", prefix="ps2_").group_by(
            ["ps2_ps_partkey"],
            [AggregateSpec(SUM, col("ps2_ps_availqty"), "avail")],
        )
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .join(ps2, on=[("ps_partkey", "ps2_ps_partkey")])
            .build()
        )
        graph = SourcePredicateGraph.from_plan(plan)
        assert "ps2_ps_partkey" in graph.eq_class("p_partkey")
        assert graph.eq_class("p_partkey") >= {
            "p_partkey", "ps_partkey", "ps2_ps_partkey",
        }

    def test_filter_column_equality_absorbed(self, catalog):
        plan = (
            scan(catalog, "partsupp")
            .filter(col("ps_partkey").eq(col("ps_suppkey")))
            .build()
        )
        graph = SourcePredicateGraph.from_plan(plan)
        assert "ps_suppkey" in graph.eq_class("ps_partkey")

    def test_residual_equality_absorbed(self, catalog):
        plan = (
            scan(catalog, "part")
            .join(
                scan(catalog, "partsupp"),
                on=[("p_partkey", "ps_partkey")],
                residual=col("p_size").eq(col("ps_availqty")),
            )
            .build()
        )
        graph = SourcePredicateGraph.from_plan(plan)
        assert "ps_availqty" in graph.eq_class("p_size")

    def test_projection_passthrough_equates(self, catalog):
        plan = (
            scan(catalog, "part")
            .project([("k", col("p_partkey"))])
            .build()
        )
        graph = SourcePredicateGraph.from_plan(plan)
        assert "p_partkey" in graph.eq_class("k")

    def test_unrelated_attrs_not_equated(self, catalog):
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        graph = SourcePredicateGraph.from_plan(plan)
        assert "ps_availqty" not in graph.eq_class("p_size")

    def test_equated_elsewhere_excludes_self(self, catalog):
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        graph = SourcePredicateGraph.from_plan(plan)
        assert graph.equated_elsewhere("p_partkey") == {"ps_partkey"}

    def test_eq_classes_nontrivial_only(self, catalog):
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        graph = SourcePredicateGraph.from_plan(plan)
        for group in graph.eq_classes():
            assert len(group) > 1

    def test_attr_scans_recorded(self, catalog):
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        graph = SourcePredicateGraph.from_plan(plan)
        assert len(graph.attr_scans["p_partkey"]) == 1
        assert graph.origins["ps_partkey"] == ("partsupp", "ps_partkey")
