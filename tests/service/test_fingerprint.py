"""Tests for structural plan fingerprints."""

import pytest

from repro.data.tpch import cached_tpch
from repro.expr.expressions import col
from repro.plan.builder import scan
from repro.service.fingerprint import plan_signature
from repro.workloads.registry import get_query


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


class TestPlanSignature:
    def test_rebuilt_plans_share_signature(self, catalog):
        build = get_query("Q2A").build_baseline
        assert plan_signature(build(catalog)) == plan_signature(build(catalog))

    def test_node_ids_do_not_leak(self, catalog):
        build = get_query("Q1A").build_baseline
        a, b = build(catalog), build(catalog)
        assert a.node_id != b.node_id
        assert plan_signature(a) == plan_signature(b)

    def test_distinct_workloads_differ(self, catalog):
        sigs = {
            plan_signature(get_query(q).build_baseline(catalog))
            for q in ("Q1A", "Q2A", "Q3A", "Q4A")
        }
        assert len(sigs) == 4

    def test_predicate_constant_changes_signature(self, catalog):
        def build(size):
            return (
                scan(catalog, "part")
                .filter(col("p_size").eq(size))
                .join(scan(catalog, "partsupp"),
                      on=[("p_partkey", "ps_partkey")])
                .build()
            )
        assert plan_signature(build(1)) != plan_signature(build(2))

    def test_magic_and_baseline_differ(self, catalog):
        query = get_query("Q2A")
        assert plan_signature(query.build_baseline(catalog)) != plan_signature(
            query.build(catalog, magic=True)
        )

    def test_site_stamping_changes_signature(self, catalog):
        """Scan-site stamping, the one mutation of a built plan, moves
        its signature: a remote scan is not a local one."""
        from repro.distributed.coordinator import mark_remote_scans
        from repro.distributed.site import Placement, Site

        plan = get_query("Q2A").build_baseline(catalog)
        before = plan_signature(plan)
        placement = Placement([Site("remote-1", tables=("lineitem",))])
        mark_remote_scans(plan, placement)
        assert plan_signature(plan) != before
