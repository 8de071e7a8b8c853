"""Tests for the distributed simulation layer."""

import pytest

from repro.aip.manager import CostBasedStrategy
from repro.common.errors import NetworkError
from repro.data.tpch import cached_tpch
from repro.distributed.network import MBPS, NetworkModel
from repro.distributed.site import Placement, Site
from repro.distributed.coordinator import DistributedQuery
from repro.exec.context import ExecutionContext
from repro.expr.expressions import col
from repro.plan.builder import scan

from tests.helpers import reference_execute, rows_equal


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


def remote_join_plan(catalog):
    """PART is selective and local; PARTSUPP is fetched from a remote
    site (the Q1C/Q3C shape)."""
    return (
        scan(catalog, "part")
        .filter(col("p_size").le(5))
        .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
        .build()
    )


class TestNetworkModel:
    def test_link_parameters(self):
        net = NetworkModel()
        net.set_link("s1", bandwidth=10 * MBPS, latency=0.01)
        assert net.link_to("s1").bandwidth == 10 * MBPS
        assert net.link_to("s1").latency == 0.01

    def test_default_link(self):
        net = NetworkModel(default_bandwidth=100 * MBPS)
        assert net.link_to("unknown").bandwidth == 100 * MBPS

    def test_invalid_link_rejected(self):
        with pytest.raises(NetworkError):
            NetworkModel(default_bandwidth=0)


class TestPlacement:
    def test_site_of(self):
        placement = Placement([Site("s1", ["partsupp"])])
        assert placement.site_of("partsupp") == "s1"
        assert placement.site_of("part") is None

    def test_duplicate_placement_rejected(self):
        with pytest.raises(NetworkError):
            Placement([Site("a", ["t"]), Site("b", ["t"])])

    def test_master_site_reserved(self):
        with pytest.raises(NetworkError):
            Placement([Site("master", ["t"])])


class TestDistributedExecution:
    def test_remote_scan_marked_and_correct(self, catalog):
        plan = remote_join_plan(catalog)
        dq = DistributedQuery(plan, Placement([Site("s1", ["partsupp"])]))
        result = dq.execute(ExecutionContext(catalog))
        assert rows_equal(result.rows, reference_execute(plan, catalog))
        assert result.metrics.network_bytes > 0

    def test_remote_fetch_dominates_time(self, catalog):
        slow = NetworkModel(default_bandwidth=1 * MBPS)
        plan = remote_join_plan(catalog)
        dq = DistributedQuery(plan, Placement([Site("s1", ["partsupp"])]), slow)
        result = dq.execute(ExecutionContext(catalog))
        # 1600 partsupp rows * ~90B at 1Mbps ≈ 1.1s of wire time.
        assert result.metrics.idle_time > result.metrics.cpu_time

    def test_costbased_ships_filter_and_saves_bytes(self, catalog):
        placement = Placement([Site("s1", ["partsupp"])])
        # Slowish link so the filter arrives while many rows remain.
        net = NetworkModel(default_bandwidth=2 * MBPS)

        baseline = DistributedQuery(
            remote_join_plan(catalog), placement, net
        ).execute(ExecutionContext(catalog))

        cb_ctx = ExecutionContext(
            catalog, strategy=CostBasedStrategy(poll_interval=0.01)
        )
        cb = DistributedQuery(
            remote_join_plan(catalog), placement, net
        ).execute(cb_ctx)

        assert rows_equal(baseline.rows, cb.rows)
        assert cb.metrics.aip_bytes_shipped > 0
        assert cb.metrics.network_bytes < baseline.metrics.network_bytes
        assert cb.metrics.clock < baseline.metrics.clock

    def test_local_tables_unaffected(self, catalog):
        plan = remote_join_plan(catalog)
        DistributedQuery(plan, Placement([Site("s1", ["partsupp"])]))
        scans = {
            n.table_name: n.site
            for n in plan.walk()
            if type(n).__name__ == "Scan"
        }
        assert scans["part"] is None
        assert scans["partsupp"] == "s1"
