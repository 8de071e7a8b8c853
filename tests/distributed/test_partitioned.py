"""Partition-parallel distributed execution: placement, fan-out,
broadcast costing, multi-destination AIP shipping, and edge cases."""

import pytest

from repro.aip.manager import CostBasedStrategy
from repro.common.errors import NetworkError
from repro.data.tpch import cached_tpch
from repro.distributed.coordinator import (
    DistributedQuery, apply_broadcast_fanouts, mark_remote_scans,
)
from repro.distributed.network import MBPS, NetworkModel
from repro.distributed.site import HASH, Placement, PartitionSpec, Site
from repro.exec.context import ExecutionContext
from repro.exec.operators.merge import PMerge
from repro.expr.expressions import col
from repro.plan.builder import scan
from repro.plan.logical import Scan

from tests.helpers import reference_execute, rows_equal


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


def remote_join_plan(catalog):
    """PART is selective and local; PARTSUPP is fetched remotely (the
    Q1C/Q3C shape)."""
    return (
        scan(catalog, "part")
        .filter(col("p_size").le(5))
        .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
        .build()
    )


def partitioned_placement(n, table="partsupp", key="ps_partkey"):
    placement = Placement()
    placement.partition_table(table, key, ["s-%d" % i for i in range(n)])
    return placement


class TestPartitionSpec:
    def test_hash_split_is_deterministic_and_total(self):
        spec = PartitionSpec("t", "k", ["a", "b", "c"])
        rows = [(i, "v%d" % i) for i in range(100)]
        parts = spec.split(rows, 0)
        assert sum(len(p) for p in parts) == 100
        assert parts == spec.split(rows, 0)
        # Within-partition order is input order.
        for part in parts:
            assert part == sorted(part, key=lambda r: r[0])

    def test_range_split_respects_bounds(self):
        spec = PartitionSpec(
            "t", "k", ["a", "b", "c"], scheme="range", bounds=[10, 20],
        )
        rows = [(5,), (10,), (11,), (20,), (21,)]
        parts = spec.split(rows, 0)
        assert parts == [[(5,), (10,)], [(11,), (20,)], [(21,)]]

    def test_range_needs_sorted_matching_bounds(self):
        with pytest.raises(NetworkError):
            PartitionSpec("t", "k", ["a", "b"], scheme="range", bounds=[])
        with pytest.raises(NetworkError):
            PartitionSpec(
                "t", "k", ["a", "b", "c"], scheme="range", bounds=[20, 10],
            )

    def test_bounds_rejected_for_hash(self):
        with pytest.raises(NetworkError):
            PartitionSpec("t", "k", ["a"], scheme=HASH, bounds=[1])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(NetworkError):
            PartitionSpec("t", "k", ["a"], scheme="round-robin")

    def test_master_partition_rejected(self):
        with pytest.raises(NetworkError):
            PartitionSpec("t", "k", ["a", "master"])

    def test_alignment(self):
        a = PartitionSpec("t", "k", ["a", "b"])
        b = PartitionSpec("u", "j", ["a", "b"])
        assert a.aligned_with(b)
        assert not a.aligned_with(PartitionSpec("u", "j", ["a", "c"]))
        assert not a.aligned_with(PartitionSpec("u", "j", ["a"]))
        r1 = PartitionSpec("t", "k", ["a", "b"], scheme="range", bounds=[5])
        r2 = PartitionSpec("u", "j", ["a", "b"], scheme="range", bounds=[5])
        r3 = PartitionSpec("u", "j", ["a", "b"], scheme="range", bounds=[9])
        assert not a.aligned_with(r1)  # hash vs range
        assert r1.aligned_with(r2)
        assert not r1.aligned_with(r3)  # different split points


class TestPlacementEdges:
    def test_unknown_site_lookup_raises(self):
        placement = Placement([Site("s1", ["partsupp"])])
        assert placement.site("s1").name == "s1"
        with pytest.raises(NetworkError):
            placement.site("nowhere")

    def test_table_placed_at_two_sites_rejected(self):
        with pytest.raises(NetworkError):
            Placement([Site("a", ["t"]), Site("b", ["t"])])

    def test_partitioned_and_whole_placement_conflict(self):
        placement = Placement([Site("a", ["t"])])
        with pytest.raises(NetworkError):
            placement.partition_table("t", "k", ["b", "c"])
        other = Placement()
        other.partition_table("t", "k", ["b", "c"])
        with pytest.raises(NetworkError):
            other.add_site(Site("d", ["t"]))
        with pytest.raises(NetworkError):
            other.partition_table("t", "k", ["d"])

    def test_partition_sites_registered(self):
        placement = partitioned_placement(3)
        assert [s.name for s in placement.sites()] == ["s-0", "s-1", "s-2"]
        assert placement.site("s-1").tables == {"partsupp"}
        assert placement.site_of("partsupp") is None
        assert placement.partitioning_of("partsupp").n_partitions == 3
        assert placement.remote_tables() == ["partsupp"]

    def test_zero_and_negative_bandwidth_links_rejected(self):
        net = NetworkModel()
        with pytest.raises(NetworkError):
            net.set_link("s1", bandwidth=0, latency=0.01)
        with pytest.raises(NetworkError):
            net.set_link("s1", bandwidth=-5.0, latency=0.01)
        with pytest.raises(NetworkError):
            net.set_link("s1", bandwidth=1.0, latency=-0.01)
        with pytest.raises(NetworkError):
            NetworkModel(default_bandwidth=-1)


class TestPartitionedExecution:
    def test_scan_fans_out_and_merges(self, catalog):
        plan = remote_join_plan(catalog)
        dq = DistributedQuery(plan, partitioned_placement(3))
        ctx = ExecutionContext(catalog)
        from repro.exec.translate import translate
        physical = translate(plan, ctx, dq.arrival_resolver())
        partitioned = [
            s for s in physical.scans if s.partition_index is not None
        ]
        assert len(partitioned) == 3
        assert {s.site for s in partitioned} == {"s-0", "s-1", "s-2"}
        ps_scan_node = next(
            n for n in plan.walk()
            if isinstance(n, Scan) and n.table_name == "partsupp"
        )
        merge = physical.by_node_id[ps_scan_node.node_id]
        assert isinstance(merge, PMerge)
        assert merge.partitions == partitioned
        # Partition scans are addressable by their own fresh ids too.
        for s in partitioned:
            assert physical.by_node_id[s.op_id] is s

    def test_partitioned_rows_match_reference(self, catalog):
        for n in (1, 2, 4):
            plan = remote_join_plan(catalog)
            dq = DistributedQuery(plan, partitioned_placement(n))
            result = dq.execute(ExecutionContext(catalog))
            assert rows_equal(result.rows, reference_execute(plan, catalog))
            assert result.metrics.network_bytes > 0

    def test_more_partitions_stream_faster(self, catalog):
        slow = lambda: NetworkModel(default_bandwidth=1 * MBPS)  # noqa: E731
        times = {}
        for n in (1, 2, 4, 8):
            plan = remote_join_plan(catalog)
            dq = DistributedQuery(plan, partitioned_placement(n), slow())
            times[n] = dq.execute(ExecutionContext(catalog)).metrics.clock
        # The clock shrinks every time the partitions double.
        assert times[1] > times[2] > times[4] > times[8]
        assert times[4] < times[1] / 2.0

    def test_empty_partitions_return_clean_empty_results(self, catalog):
        # Range-partition so every row lands in partition 0; the other
        # partitions are valid, immediately exhausted sources.
        placement = Placement()
        placement.partition_table(
            "partsupp", "ps_partkey", ["a", "b", "c"],
            scheme="range", bounds=[10 ** 9, 2 * 10 ** 9],
        )
        plan = remote_join_plan(catalog)
        dq = DistributedQuery(plan, placement)
        result = dq.execute(ExecutionContext(catalog))
        assert rows_equal(result.rows, reference_execute(plan, catalog))

    def test_more_partitions_than_rows(self, catalog):
        placement = Placement()
        placement.partition_table(
            "region", "r_regionkey", ["s-%d" % i for i in range(8)],
        )
        plan = scan(catalog, "region").build()
        dq = DistributedQuery(plan, placement)
        result = dq.execute(ExecutionContext(catalog))
        assert rows_equal(result.rows, list(catalog.table("region").rows))

    def test_pushed_predicates_reach_every_partition(self, catalog):
        def run(push):
            plan = (
                scan(catalog, "partsupp")
                .filter(col("ps_availqty").le(100))
                .build()
            )
            dq = DistributedQuery(
                plan, partitioned_placement(3), push_predicates=push,
            )
            result = dq.execute(ExecutionContext(catalog))
            assert rows_equal(result.rows, reference_execute(plan, catalog))
            return result

        unpushed = run(False)
        pushed = run(True)
        # Rejected rows were dropped at each source, before the wire.
        assert pushed.metrics.network_bytes < unpushed.metrics.network_bytes


class TestBroadcastCosting:
    def _two_sided_plan(self, catalog):
        return (
            scan(catalog, "partsupp")
            .join(
                scan(catalog, "lineitem",
                     renames={"l_partkey": "lp", "l_suppkey": "ls"}),
                on=[("ps_partkey", "lp"), ("ps_suppkey", "ls")],
            )
            .build()
        )

    def _fanouts(self, plan):
        return {
            n.table_name: n.broadcast_fanout
            for n in plan.walk() if isinstance(n, Scan)
        }

    def test_co_partitioned_join_has_no_broadcast(self, catalog):
        plan = self._two_sided_plan(catalog)
        placement = Placement()
        sites = ["s-%d" % i for i in range(4)]
        placement.partition_table("partsupp", "ps_partkey", sites)
        placement.partition_table("lineitem", "l_partkey", sites)
        mark_remote_scans(plan, placement)
        apply_broadcast_fanouts(plan, catalog)
        assert self._fanouts(plan) == {"partsupp": 1, "lineitem": 1}

    def test_mispartitioned_join_broadcasts_smaller_side(self, catalog):
        plan = self._two_sided_plan(catalog)
        placement = Placement()
        sites = ["s-%d" % i for i in range(4)]
        # Partition keys on *different* join-key pairs: not co-located.
        placement.partition_table("partsupp", "ps_suppkey", sites)
        placement.partition_table("lineitem", "l_partkey", sites)
        mark_remote_scans(plan, placement)
        apply_broadcast_fanouts(plan, catalog)
        # partsupp (1600 rows) < lineitem (~6000): broadcast partsupp to
        # lineitem's 4 partitions.
        assert self._fanouts(plan) == {"partsupp": 4, "lineitem": 1}

    def test_broadcast_charges_wire_time_and_bytes(self, catalog):
        def run(partsupp_key):
            plan = self._two_sided_plan(catalog)
            placement = Placement()
            sites = ["s-%d" % i for i in range(4)]
            placement.partition_table("partsupp", partsupp_key, sites)
            placement.partition_table("lineitem", "l_partkey", sites)
            dq = DistributedQuery(plan, placement)
            return dq.execute(ExecutionContext(catalog))

        local = run("ps_partkey")     # co-partitioned
        broadcast = run("ps_suppkey")  # mis-partitioned
        assert rows_equal(local.rows, broadcast.rows)
        assert broadcast.metrics.network_bytes > local.metrics.network_bytes
        assert broadcast.metrics.clock > local.metrics.clock

    def test_single_partitioned_side_is_free_of_broadcast(self, catalog):
        plan = remote_join_plan(catalog)  # part is master-local
        mark_remote_scans(plan, partitioned_placement(4))
        apply_broadcast_fanouts(plan, catalog)
        assert self._fanouts(plan) == {"part": 1, "partsupp": 1}


class TestDistributedAIPMultiShip:
    def test_filter_ships_to_every_partition(self, catalog):
        n = 3
        net = NetworkModel(default_bandwidth=2 * MBPS)

        baseline = DistributedQuery(
            remote_join_plan(catalog), partitioned_placement(n), net,
        ).execute(ExecutionContext(catalog))

        cb_ctx = ExecutionContext(
            catalog, strategy=CostBasedStrategy(poll_interval=0.01),
        )
        cb = DistributedQuery(
            remote_join_plan(catalog), partitioned_placement(n), net,
        ).execute(cb_ctx)

        assert rows_equal(baseline.rows, cb.rows)
        # One filter copy per partition crossed the wire...
        single_ctx = ExecutionContext(
            catalog, strategy=CostBasedStrategy(poll_interval=0.01),
        )
        single = DistributedQuery(
            remote_join_plan(catalog), partitioned_placement(1), net,
        ).execute(single_ctx)
        assert cb.metrics.aip_bytes_shipped == (
            n * single.metrics.aip_bytes_shipped
        )
        # ...and every partition's source holds an active filter that
        # pruned rows before they consumed link bandwidth.
        assert cb.metrics.network_bytes < baseline.metrics.network_bytes
        assert cb.metrics.clock < baseline.metrics.clock

    def test_per_site_links_pace_activation(self, catalog):
        """A partition behind a slower link activates its filter later
        (per-partition staleness/transfer accounting)."""
        net = NetworkModel(default_bandwidth=2 * MBPS)
        net.set_link("s-1", bandwidth=0.5 * MBPS, latency=0.05)
        ctx = ExecutionContext(
            catalog, strategy=CostBasedStrategy(poll_interval=0.01),
        )
        plan = remote_join_plan(catalog)
        dq = DistributedQuery(plan, partitioned_placement(2), net)
        from repro.exec.translate import translate
        from repro.exec.engine import Engine
        physical = translate(plan, ctx, dq.arrival_resolver())
        ctx.cost_model.network_bandwidth = net.link_to("__x__").bandwidth
        ctx.cost_model.network_latency = net.link_to("__x__").latency
        ctx.network = net
        ctx.strategy.attach(ctx, physical)
        Engine(ctx).run(physical)
        activations = {}
        for scan_op in physical.scans:
            if scan_op.partition_index is None:
                continue
            shipped = [
                f for f in scan_op.arrival.filters
                if type(f).__name__ == "SourceFilter"
            ]
            assert shipped, "partition %s got no filter" % scan_op.site
            activations[scan_op.site] = shipped[0].activation_time
        assert activations["s-1"] > activations["s-0"]
