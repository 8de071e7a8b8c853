"""Logical → physical plan translation.

Each logical node maps to one physical operator (keeping the logical
``node_id``, which is how the AIP layer addresses running operators).
A result sink is appended above the root.

Arrival models are resolved per scan: explicit overrides first, then
site-based remote models (a scan marked with a site is fetched over the
simulated network), then local streaming.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import PlanError
from repro.exec.arrival import ArrivalModel
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator
from repro.exec.operators.distinct import PDistinct
from repro.exec.operators.filter import PFilter
from repro.exec.operators.groupby import PGroupBy
from repro.exec.operators.hashjoin import PHashJoin
from repro.exec.operators.merge import PMerge
from repro.exec.operators.output import POutput
from repro.exec.operators.project import PProject
from repro.exec.operators.scan import PScan
from repro.exec.operators.semijoin import PSemiJoin
from repro.plan.logical import (
    Distinct, Filter, GroupBy, Join, LogicalNode, Project, Scan, SemiJoin,
    fresh_node_id,
)

#: Resolves the arrival model for a scan node; return None to fall back
#: to the default resolution.  A resolver with a truthy ``accepts_site``
#: attribute is additionally called as ``resolver(node, site=name)``
#: once per partition when a scan is fanned out, so per-site links (and
#: pushed-down predicates) apply to every partition stream.
ArrivalResolver = Callable[[Scan], Optional[ArrivalModel]]


class PhysicalPlan:
    """The translated operator tree plus lookup structures."""

    def __init__(
        self,
        sink: POutput,
        scans: List[PScan],
        by_node_id: Dict[int, Operator],
        logical_root: LogicalNode,
    ):
        self.sink = sink
        self.scans = scans
        self.by_node_id = by_node_id
        self.logical_root = logical_root

    def operator_for(self, node_id: int) -> Operator:
        try:
            return self.by_node_id[node_id]
        except KeyError:
            raise PlanError("no physical operator for node #%d" % node_id)


def _scan_rows(ctx: ExecutionContext, schema, rows):
    """The row sequence a scan streams: the raw table list, or — under
    a memory governor — a :class:`~repro.storage.buffer.PagedRows`
    facade whose column pages the buffer pool may evict and reload."""
    if ctx.governor is None:
        return rows
    from repro.storage.buffer import PagedRows
    return PagedRows(ctx, schema, rows)


def default_arrival(ctx: ExecutionContext, node: Scan) -> ArrivalModel:
    """Remote scans pay link latency/bandwidth; local scans stream."""
    if node.site is not None:
        row_bytes = node.schema.row_byte_size()
        return ArrivalModel.remote(
            bandwidth=ctx.cost_model.network_bandwidth,
            row_bytes=row_bytes,
            latency=ctx.cost_model.network_latency,
        )
    return ArrivalModel.streaming()


def _partition_arrival(
    ctx: ExecutionContext,
    node: Scan,
    site: str,
    arrival_resolver: Optional[ArrivalResolver],
) -> ArrivalModel:
    """Arrival model for one partition of a fanned-out scan.

    Site-aware resolvers (the coordinator's) pace each partition on its
    own link and install pushed-down predicates.  A plain resolver
    keeps the documented "explicit overrides first" contract: it is
    called once per partition (arrival models carry mutable cursor
    state, so partitions must never share one) and its model, if any,
    wins.  With no resolver or no override, the context's network
    constants apply uniformly.  The logical scan's broadcast fan-out
    (non-co-partitioned join analysis) multiplies wire time either way.
    """
    arrival = None
    if arrival_resolver is not None:
        if getattr(arrival_resolver, "accepts_site", False):
            arrival = arrival_resolver(node, site=site)
        else:
            arrival = arrival_resolver(node)
    if arrival is None:
        arrival = ArrivalModel.remote(
            bandwidth=ctx.cost_model.network_bandwidth,
            row_bytes=node.schema.row_byte_size(),
            latency=ctx.cost_model.network_latency,
        )
    arrival.fanout = max(arrival.fanout, node.broadcast_fanout)
    return arrival


def _build_partitioned_scan(
    ctx: ExecutionContext,
    node: Scan,
    arrival_resolver: Optional[ArrivalResolver],
    scans: List[PScan],
    by_node_id: Dict[int, Operator],
) -> PMerge:
    """Fan a partitioned scan out into per-partition scans + a merge."""
    spec = node.partition
    table = ctx.catalog.table(node.table_name)
    # Partitioning keys address the base schema (pre-rename).
    key_index = table.schema.index_of(spec.key)
    parts = table.partition_rows(spec, key_index)
    merge = PMerge(
        ctx, node.node_id, node.schema, spec.n_partitions,
        table_name=node.table_name,
    )
    for index, (site, rows) in enumerate(zip(spec.sites, parts)):
        scan = PScan(
            ctx, fresh_node_id(), node.schema,
            _scan_rows(ctx, node.schema, rows),
            arrival=_partition_arrival(ctx, node, site, arrival_resolver),
            table_name=node.table_name, site=site, partition_index=index,
        )
        # Partition scans resolve by their own (fresh) ids — the AIP
        # layer addresses each partition individually when shipping —
        # and share the logical scan for estimates and depth lookups.
        scan.logical = node
        by_node_id[scan.op_id] = scan
        scans.append(scan)
        merge.connect_child(scan, index)
    if ctx.tracer is not None:
        ctx.tracer.instant(
            "partition.fanout", "partition", ctx.metrics.clock_ticks,
            {
                "table": node.table_name,
                "key": spec.key,
                "partitions": spec.n_partitions,
            },
        )
    return merge


def translate(
    root: LogicalNode,
    ctx: ExecutionContext,
    arrival_resolver: Optional[ArrivalResolver] = None,
) -> PhysicalPlan:
    """Build the physical operator tree for ``root``."""
    scans: List[PScan] = []
    by_node_id: Dict[int, Operator] = {}

    def build(node: LogicalNode) -> Operator:
        # Shared subexpressions (DAG plans) translate to one physical
        # operator with several parents.
        existing = by_node_id.get(node.node_id)
        if existing is not None:
            return existing
        if isinstance(node, Scan):
            if node.partition is not None:
                op = _build_partitioned_scan(
                    ctx, node, arrival_resolver, scans, by_node_id
                )
            else:
                table = ctx.catalog.table(node.table_name)
                arrival = None
                if arrival_resolver is not None:
                    arrival = arrival_resolver(node)
                if arrival is None:
                    arrival = default_arrival(ctx, node)
                op = PScan(
                    ctx, node.node_id, node.schema,
                    _scan_rows(ctx, node.schema, table.rows),
                    arrival=arrival, table_name=node.table_name,
                    site=node.site,
                )
                scans.append(op)
        elif isinstance(node, Filter):
            child = build(node.child)
            op = PFilter(ctx, node.node_id, node.schema, node.predicate)
            op.connect_child(child, 0)
        elif isinstance(node, Project):
            child = build(node.child)
            op = PProject(
                ctx, node.node_id, node.child.schema, node.schema, node.outputs
            )
            op.connect_child(child, 0)
        elif isinstance(node, Join):
            left = build(node.left)
            right = build(node.right)
            op = PHashJoin(
                ctx, node.node_id,
                node.left.schema, node.right.schema,
                list(node.left_keys), list(node.right_keys),
                residual=node.residual,
            )
            op.connect_child(left, 0)
            op.connect_child(right, 1)
        elif isinstance(node, SemiJoin):
            probe = build(node.probe)
            source = build(node.source)
            op = PSemiJoin(
                ctx, node.node_id,
                node.probe.schema, node.source.schema,
                list(node.probe_keys), list(node.source_keys),
            )
            op.connect_child(probe, 0)
            op.connect_child(source, 1)
        elif isinstance(node, GroupBy):
            child = build(node.child)
            op = PGroupBy(
                ctx, node.node_id, node.child.schema, node.schema,
                list(node.keys), list(node.aggregates),
            )
            op.connect_child(child, 0)
        elif isinstance(node, Distinct):
            child = build(node.child)
            op = PDistinct(ctx, node.node_id, node.schema)
            op.connect_child(child, 0)
        else:
            raise PlanError("cannot translate node %r" % node)
        op.logical = node  # back-reference used by the AIP layer
        by_node_id[node.node_id] = op
        return op

    top = build(root)
    sink = POutput(ctx, fresh_node_id(), top.out_schema)
    sink.connect_child(top, 0)
    sink.logical = None
    return PhysicalPlan(sink, scans, by_node_id, root)
