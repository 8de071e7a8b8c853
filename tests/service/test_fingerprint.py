"""Tests for structural plan fingerprints."""

import pytest

from repro.data.tpch import cached_tpch
from repro.expr.expressions import col
from repro.plan.builder import scan
from repro.service.fingerprint import (
    invalidate_signatures, plan_signature,
)
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
            query.build_magic(catalog)
        )


class TestSignatureMemo:
    def test_signature_is_memoised_per_node(self, catalog):
        plan = get_query("Q2A").build_baseline(catalog)
        assert "_signature_memo" not in plan.__dict__
        sig = plan_signature(plan)
        assert plan.__dict__["_signature_memo"] == sig
        # the memo, not a recomputation, is returned
        plan.__dict__["_signature_memo"] = "sentinel"
        assert plan_signature(plan) == "sentinel"

    def test_invalidate_clears_whole_walk(self, catalog):
        plan = get_query("Q2A").build_baseline(catalog)
        sig = plan_signature(plan)
        memoised = [
            node for node in plan.walk()
            if "_signature_memo" in node.__dict__
        ]
        assert memoised  # the root render memoises child subtrees too
        invalidate_signatures(plan)
        assert all(
            "_signature_memo" not in node.__dict__ for node in plan.walk()
        )
        assert plan_signature(plan) == sig

    def test_site_stamping_invalidates(self, catalog):
        """The one mutating path (scan-site stamping) must change the
        signature it invalidated, not serve the stale memo."""
        from repro.distributed.coordinator import mark_remote_scans
        from repro.distributed.site import Placement, Site

        plan = get_query("Q2A").build_baseline(catalog)
        before = plan_signature(plan)
        placement = Placement([Site("remote-1", tables=("lineitem",))])
        mark_remote_scans(plan, placement)
        assert plan_signature(plan) != before
