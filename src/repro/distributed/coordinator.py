"""Distributed query coordination.

Wires a logical plan, a table placement and a network model into the
single-clock simulation:

* scans of remotely placed tables are marked with their site and get
  remote arrival models paced by the site's link;
* scans of *partitioned* tables are marked with their partition spec;
  translation fans each out into one per-partition remote scan, all
  merged under the single virtual clock, so N partitions on N links
  stream in parallel;
* joins over partitioned tables are costed by the co-partitioning
  analysis: a join whose two sides are partitioned on the join key with
  aligned specs runs partition-local (no cross-site traffic beyond the
  normal partition streams), otherwise the smaller partitioned side is
  broadcast — each of its rows pays the wire once per destination
  partition of the other side;
* the cost-based AIP Manager (running at the master, as in the paper)
  ships beneficial filters to remote scans — every partition of a
  partitioned source — paying polling staleness plus per-partition
  transfer time before they activate at each source.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.data.catalog import Catalog
from repro.distributed.network import NetworkModel
from repro.distributed.site import Placement
from repro.exec.arrival import ArrivalModel
from repro.exec.context import ExecutionContext
from repro.exec.engine import QueryResult, execute_plan
from repro.expr.compiler import compile_predicate
from repro.plan.logical import Filter, Join, LogicalNode, Scan


def mark_remote_scans(plan: LogicalNode, placement: Placement) -> None:
    """Stamp each scan with its owning site (None = master-local) or,
    for partitioned tables, its partition spec, so translation applies
    the remote link model / fans the scan out.  Shared by the
    coordinator and the service layer's plan builder."""
    for node in plan.walk():
        if isinstance(node, Scan):
            node.site = placement.site_of(node.table_name)
            node.partition = placement.partitioning_of(node.table_name)


def _partitioned_scans(side: LogicalNode) -> List[Scan]:
    """All partitioned base scans feeding one join side."""
    return [
        node for node in side.walk()
        if isinstance(node, Scan) and node.partition is not None
    ]


def _pick_broadcast_scan(
    side: LogicalNode, keys, scans: List[Scan]
) -> Scan:
    """The scan whose partitions a broadcast of this side touches:
    prefer one partitioned on a join-key origin (the stream is
    partitioned by inheritance), else the side's first partitioned
    scan."""
    key_origins = {side.column_origins.get(k) for k in keys} - {None}
    for node in scans:
        if (node.table_name, node.partition.key) in key_origins:
            return node
    return scans[0]


def apply_broadcast_fanouts(plan: LogicalNode, catalog: Catalog) -> None:
    """Co-partitioning analysis (run after :func:`mark_remote_scans`).

    A join is **co-partitioned** when some join-key *pair* traces back
    (via ``column_origins``) to the partition keys of partitioned scans
    on both sides with aligned specs — equal join keys then land on the
    same partition index at the same site, and the join runs
    partition-local with no extra wire cost.  Otherwise, if both sides
    read partitioned tables, the smaller side (by catalog row counts)
    must be broadcast to every partition of the larger: its rows each
    cross the wire once per destination partition, recorded as
    ``broadcast_fanout`` on the logical scan and charged by the
    partition arrival models.  A scan feeding several such joins pays
    the largest fan-out it needs.
    """
    for node in plan.walk():
        if isinstance(node, Scan):
            node.broadcast_fanout = 1
    for node in plan.walk():
        if not isinstance(node, Join):
            continue
        left_scans = _partitioned_scans(node.left)
        right_scans = _partitioned_scans(node.right)
        if not left_scans or not right_scans:
            continue  # at most one partitioned side: fetch to master
        by_table_left = {s.table_name: s for s in left_scans}
        by_table_right = {s.table_name: s for s in right_scans}
        co_partitioned = False
        for left_key, right_key in node.key_pairs():
            left_origin = node.left.column_origins.get(left_key)
            right_origin = node.right.column_origins.get(right_key)
            if left_origin is None or right_origin is None:
                continue
            left_scan = by_table_left.get(left_origin[0])
            right_scan = by_table_right.get(right_origin[0])
            if (
                left_scan is not None
                and right_scan is not None
                and left_origin[1] == left_scan.partition.key
                and right_origin[1] == right_scan.partition.key
                and left_scan.partition.aligned_with(right_scan.partition)
            ):
                co_partitioned = True
                break
        if co_partitioned:
            continue  # partition-local join
        left_scan = _pick_broadcast_scan(node.left, node.left_keys, left_scans)
        right_scan = _pick_broadcast_scan(
            node.right, node.right_keys, right_scans
        )
        left_rows = catalog.stats(left_scan.table_name).row_count
        right_rows = catalog.stats(right_scan.table_name).row_count
        if left_rows <= right_rows:
            smaller, other = left_scan, right_scan
        else:
            smaller, other = right_scan, left_scan
        smaller.broadcast_fanout = max(
            smaller.broadcast_fanout, other.partition.n_partitions
        )


def attach_network(ctx: ExecutionContext, network: NetworkModel) -> None:
    """Align the context's network cost constants with the actual
    links so strategy-side shipping estimates stay coherent, and attach
    the network itself for per-site link accounting.  Shared by the
    coordinator and the service's batch executor."""
    default_link = network.link_to("__default__")
    ctx.cost_model.network_bandwidth = default_link.bandwidth
    ctx.cost_model.network_latency = default_link.latency
    ctx.network = network


def remote_arrival_resolver(
    network: NetworkModel, pushed=None
) -> Callable[..., Optional[ArrivalModel]]:
    """Arrival resolver pacing remote scans on ``network``'s links,
    optionally installing pushed predicates (``{scan node_id:
    [predicates]}``) at the source.  Shared by the coordinator and the
    service layer so both paths cost distributed scans identically.

    The resolver ``accepts_site``: translation calls it once per
    partition of a fanned-out scan, so every partition paces on its own
    site's link and evaluates the pushed predicates at its source.
    """
    pushed = pushed or {}

    def resolver(node: Scan, site: Optional[str] = None) -> Optional[ArrivalModel]:
        target_site = site if site is not None else node.site
        if target_site is None:
            return None  # default local streaming
        link = network.link_to(target_site)
        model = ArrivalModel.remote(
            bandwidth=link.bandwidth,
            row_bytes=node.schema.row_byte_size(),
            latency=link.latency,
        )
        for predicate in pushed.get(node.node_id, ()):
            model.install_predicate(
                compile_predicate(predicate, node.schema)
            )
        return model

    resolver.accepts_site = True
    return resolver


class DistributedQuery:
    """One query over placed tables, runnable under any strategy.

    ``push_predicates=True`` relocates filter predicates sitting
    directly above remote scans to the owning site (Section V-A:
    Tukwila "considers plans that 'push' portions of the query from the
    'master' query node to the remote source"), so rejected rows never
    consume link bandwidth.  For a partitioned table the predicates are
    installed at every partition's source.
    """

    def __init__(
        self,
        plan: LogicalNode,
        placement: Placement,
        network: Optional[NetworkModel] = None,
        push_predicates: bool = False,
    ):
        self.plan = plan
        self.placement = placement
        self.network = network or NetworkModel()
        self.push_predicates = push_predicates
        self._mark_scans(plan)
        self._pushed = self._collect_pushable() if push_predicates else {}

    def _mark_scans(self, plan: LogicalNode) -> None:
        mark_remote_scans(plan, self.placement)

    def _collect_pushable(self):
        """Map remote-scan node ids to the predicates of Filter chains
        directly above them (evaluated at the source as well; the
        master-side filter then passes trivially)."""
        pushed = {}
        seen_predicates = set()
        for node in self.plan.walk():
            if not isinstance(node, Filter):
                continue
            # Walk down through stacked filters to the scan, gathering
            # every predicate on the way (dedup: inner filters of a
            # chain are themselves visited by the walk).
            chain = [node.predicate]
            child = node.child
            while isinstance(child, Filter):
                chain.append(child.predicate)
                child = child.child
            if isinstance(child, Scan) and (
                child.site is not None or child.partition is not None
            ):
                for predicate in chain:
                    if id(predicate) not in seen_predicates:
                        seen_predicates.add(id(predicate))
                        pushed.setdefault(child.node_id, []).append(predicate)
        return pushed

    def arrival_resolver(self) -> Callable[..., Optional[ArrivalModel]]:
        return remote_arrival_resolver(self.network, self._pushed)

    def execute(
        self,
        ctx: ExecutionContext,
    ) -> QueryResult:
        """Run under the context's strategy with remote arrival pacing."""
        return execute_plan(self.plan, ctx, self.prepare(ctx))

    def prepare(
        self, ctx: ExecutionContext,
    ) -> Callable[..., Optional[ArrivalModel]]:
        """Attach the network to ``ctx`` and fan broadcasts out over the
        plan; returns the arrival resolver to translate the plan with."""
        attach_network(ctx, self.network)
        apply_broadcast_fanouts(self.plan, ctx.catalog)
        return self.arrival_resolver()
