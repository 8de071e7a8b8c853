"""Soundness property tests for AIP.

These hunt for the class of bugs where a filter is injected somewhere
it doesn't dominate, producing *missing* rows.  The invariant is strict
equality of result multisets across strategies, over randomised data,
plan shapes and arrival timings.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aip.feedforward import FeedForwardStrategy
from repro.aip.manager import CostBasedStrategy
from repro.data.tpch import TpchConfig, generate_tpch
from repro.exec.arrival import ArrivalModel
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.expr.aggregates import MIN, SUM, AggregateSpec
from repro.expr.expressions import col, lit
from repro.optimizer.predicate_graph import SourcePredicateGraph
from repro.plan.builder import scan

from tests.helpers import rows_equal

_CATALOGS = {}


def small_catalog(seed: int, skew: float):
    key = (seed, skew)
    if key not in _CATALOGS:
        _CATALOGS[key] = generate_tpch(
            TpchConfig(scale_factor=0.001, skew=skew, seed=seed)
        )
    return _CATALOGS[key]


def correlated_plan(catalog, size_cut, date_cut, use_distinct):
    parent = (
        scan(catalog, "part")
        .filter(col("p_size").le(size_cut))
        .join(
            scan(catalog, "partsupp", prefix="ps1_"),
            on=[("p_partkey", "ps1_ps_partkey")],
        )
    )
    sub = (
        scan(catalog, "lineitem")
        .filter(col("l_shipdate").gt(date_cut))
        .group_by(
            ["l_partkey"],
            [AggregateSpec(SUM, col("l_quantity"), "numsold")],
        )
    )
    joined = parent.join(sub, on=[("p_partkey", "l_partkey")])
    if use_distinct:
        return joined.project(["p_partkey"]).distinct().build()
    return joined.build()


def min_plan(catalog, size_cut):
    sub = scan(catalog, "partsupp", prefix="m_").group_by(
        ["m_ps_partkey"],
        [AggregateSpec(MIN, col("m_ps_supplycost"), "min_cost")],
    )
    return (
        scan(catalog, "part")
        .filter(col("p_size").le(size_cut))
        .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
        .join(
            sub,
            on=[("ps_partkey", "m_ps_partkey")],
            residual=col("ps_supplycost").eq(col("min_cost")),
        )
        .build()
    )


class TestAggregateBoundaryInvariant:
    def test_aggregate_input_not_equated_to_output(self):
        """``min_cost = MIN(m_ps_supplycost)`` must NOT put the
        aggregate's input attribute into the output's equivalence class:
        filtering the subquery's supply costs by the parent's would
        corrupt the MIN."""
        catalog = small_catalog(1, 0.0)
        plan = min_plan(catalog, 50)
        graph = SourcePredicateGraph.from_plan(plan)
        assert "min_cost" in graph.eq_class("ps_supplycost")
        assert "min_cost" not in graph.eq_class("m_ps_supplycost")
        assert "ps_supplycost" not in graph.eq_class("m_ps_supplycost")


class TestRandomisedConsistency:
    @given(
        seed=st.integers(0, 6),
        skew=st.sampled_from([0.0, 0.5]),
        size_cut=st.integers(1, 50),
        date_cut=st.sampled_from(["1993-01-01", "1996-01-01", "1998-01-01"]),
        use_distinct=st.booleans(),
        delayed_table=st.sampled_from(
            [None, "part", "partsupp", "lineitem"]
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_strategies_agree_on_correlated_plan(
        self, seed, skew, size_cut, date_cut, use_distinct, delayed_table
    ):
        catalog = small_catalog(seed, skew)

        def resolver(node):
            if delayed_table and node.table_name == delayed_table:
                return ArrivalModel.delayed(initial_delay=0.005)
            return None

        results = []
        for strategy in (None, FeedForwardStrategy(), CostBasedStrategy()):
            plan = correlated_plan(catalog, size_cut, date_cut, use_distinct)
            ctx = ExecutionContext(catalog, strategy=strategy)
            results.append(execute_plan(plan, ctx, arrival_resolver=resolver))
        assert rows_equal(results[0].rows, results[1].rows)
        assert rows_equal(results[0].rows, results[2].rows)

    @given(
        seed=st.integers(0, 6),
        size_cut=st.integers(1, 50),
        fast_table=st.sampled_from(["part", "partsupp"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_strategies_agree_on_min_plan(self, seed, size_cut, fast_table):
        catalog = small_catalog(seed, 0.0)

        def resolver(node):
            # Vary completion order aggressively.
            if node.table_name == fast_table:
                return ArrivalModel.streaming(per_tuple=1e-8)
            return ArrivalModel.streaming(per_tuple=1e-5)

        results = []
        for strategy in (None, FeedForwardStrategy(), CostBasedStrategy()):
            plan = min_plan(catalog, size_cut)
            ctx = ExecutionContext(catalog, strategy=strategy)
            results.append(execute_plan(plan, ctx, arrival_resolver=resolver))
        assert rows_equal(results[0].rows, results[1].rows)
        assert rows_equal(results[0].rows, results[2].rows)
