"""Tests for logical -> physical translation."""

import pytest

from repro.common.errors import PlanError
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.operators.groupby import PGroupBy
from repro.exec.operators.scan import PScan
from repro.exec.translate import translate
from repro.expr.aggregates import SUM, AggregateSpec
from repro.expr.expressions import col
from repro.plan.builder import scan


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.001)


class TestTranslate:
    def test_node_ids_preserved(self, catalog):
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        physical = translate(plan, ExecutionContext(catalog))
        for node in plan.walk():
            op = physical.by_node_id[node.node_id]
            assert op.op_id == node.node_id
            assert op.logical is node

    def test_operator_kinds(self, catalog):
        plan = (
            scan(catalog, "partsupp")
            .group_by(
                ["ps_partkey"],
                [AggregateSpec(SUM, col("ps_availqty"), "avail")],
            )
            .build()
        )
        physical = translate(plan, ExecutionContext(catalog))
        kinds = {type(op).__name__ for op in physical.sink.walk()}
        assert {"POutput", "PGroupBy", "PScan"} <= kinds

    def test_shared_node_translated_once(self, catalog):
        from repro.plan.logical import Join, Project
        from repro.expr.expressions import Col

        shared = scan(catalog, "part").build()
        left = Project(shared, [("l", Col("p_partkey"))])
        right = Project(shared, [("r", Col("p_partkey"))])
        dag = Join(left, right, ["l"], ["r"])
        physical = translate(dag, ExecutionContext(catalog))
        scans = [op for op in physical.sink.walk() if isinstance(op, PScan)]
        assert len(scans) == 1
        assert len(scans[0].parents) == 2

    def test_unknown_operator_rejected(self, catalog):
        class Strange:
            node_id = -1
            children = ()

        with pytest.raises((PlanError, AttributeError)):
            translate(Strange(), ExecutionContext(catalog))

    def test_remote_site_gets_remote_arrival(self, catalog):
        plan = scan(catalog, "partsupp", site="s1").build()
        physical = translate(plan, ExecutionContext(catalog))
        scan_op = physical.scans[0]
        assert scan_op.arrival.bandwidth is not None

    def test_local_scan_streams(self, catalog):
        plan = scan(catalog, "partsupp").build()
        physical = translate(plan, ExecutionContext(catalog))
        assert physical.scans[0].arrival.bandwidth is None


class TestContext:
    def test_charge_advances_clock(self, catalog):
        ctx = ExecutionContext(catalog)
        ctx.charge(1.5)
        assert ctx.metrics.clock == 1.5
        assert ctx.metrics.cpu_time == 1.5

    def test_default_strategy_describe(self, catalog):
        assert ExecutionContext(catalog).strategy.describe() == "baseline"
