"""Cost-Based AIP: the AIP Manager (Section IV-B of the paper).

Unlike Feed-Forward, nothing is built incrementally.  Normal query
processing proceeds until an input of a stateful operator completes.
The AIP Manager is then invoked; it

1. re-grounds the optimizer's cardinality estimates in runtime counter
   values (``UPDATEESTIMATES`` — the engine's per-operator cardinality
   counters exist for exactly this);
2. for each attribute recoverable from the completed state, runs
   ``ESTIMATEBENEFIT`` (Figure 4): walk the interested targets from the
   deepest upward, estimate the filtering benefit on tuples *still to
   arrive*, avoid double counting via the ``used`` ancestor set, and
   compare total savings against the cost of building (and, for remote
   targets, shipping) the filter;
3. if beneficial, builds a Bloom filter by scanning the operator state
   and injects it: locally through the engine's on-the-fly semijoin
   registration, remotely (distributed AIP, Section V-B) by installing
   a source-side filter whose activation is delayed by the manager's
   polling interval plus the filter's transfer time — an adaptive
   Bloomjoin.  A *partitioned* source is one logical target with many
   destinations: the benefit model aggregates the tuples still to
   arrive across its live partitions, and shipping sends a copy of the
   filter to **every** partition, each paying its own site link's
   latency and transfer time (per-partition staleness and transfer
   accounting).

Existing filters over the same key are intersected where geometry
allows rather than stacked (Section IV-B).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.aip.candidates import AIPStrategy
from repro.aip.sets import BLOOM, AIPSet, AIPSetSpec
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator
from repro.exec.operators.scan import PScan
from repro.exec.translate import PhysicalPlan
from repro.optimizer.cost import PlanCoster
from repro.optimizer.estimator import CardinalityEstimator
from repro.plan.logical import LogicalNode
from repro.summaries.bloom import BloomFilter


class CostBasedStrategy(AIPStrategy):
    """The paper's cost-based AIP algorithm with distributed extensions:
    a filter whose target is a remote scan is shipped to its source
    (Section V-B)."""

    #: A filter is built when its savings exceed this multiple of its
    #: build (and shipping) cost.
    BENEFIT_MARGIN = 1.0

    def __init__(
        self,
        fp_rate: float = 0.05,
        n_hashes: int = 1,
        poll_interval: float = 0.050,
    ):
        self.fp_rate = fp_rate
        self.n_hashes = n_hashes
        #: The master AIP Manager "periodically polls all secondary
        #: sites"; remote information passing pays this staleness.
        self.poll_interval = poll_interval
        self.estimator: Optional[CardinalityEstimator] = None
        self.coster: Optional[PlanCoster] = None
        self._parents: Dict[int, List[Tuple[LogicalNode, int]]] = {}
        self._depth: Dict[int, int] = {}
        self._shipped: Set[Tuple[int, str]] = set()

    def describe(self) -> str:
        return "cost-based"

    # -- initialization -----------------------------------------------------

    def attach(self, ctx: ExecutionContext, plan: PhysicalPlan) -> None:
        super().attach(ctx, plan)
        self.estimator = CardinalityEstimator(ctx.catalog)
        self.coster = PlanCoster(ctx.catalog, ctx.cost_model, self.estimator)
        self._map_plan(plan.logical_root)
        # Partition scans register under fresh physical ids; they sit at
        # their logical scan's depth so target ordering (deepest first)
        # treats every partition exactly like the unpartitioned scan.
        for scan in plan.scans:
            if scan.op_id not in self._depth:
                logical = getattr(scan, "logical", None)
                if logical is not None:
                    self._depth[scan.op_id] = self._depth.get(
                        logical.node_id, 0
                    )

    def _map_plan(self, root: LogicalNode) -> None:
        """Record parent links and node depths for benefit propagation."""
        self._depth[root.node_id] = 0
        stack = [(root, 0)]
        seen = {root.node_id}
        while stack:
            node, depth = stack.pop()
            for port, child in enumerate(node.children):
                self._parents.setdefault(child.node_id, []).append((node, port))
                if child.node_id not in seen:
                    seen.add(child.node_id)
                    self._depth[child.node_id] = depth + 1
                    stack.append((child, depth + 1))

    # -- runtime ------------------------------------------------------------

    def on_input_finished(self, op: Operator, port: int) -> None:
        party = (op.op_id, port)
        attrs = self.index.producible.get(party)
        if not attrs:
            return
        if not op.state_complete(port):
            # Short-circuited join sides and semijoin probe buffers do
            # not hold the complete subexpression result; summarising
            # them would produce false negatives.
            return
        cm = self.ctx.cost_model
        self.ctx.charge(cm.manager_invocation)
        self._update_estimates()
        stored = op.stored_count(port)
        for attr in attrs:
            if self._estimate_benefit(attr, op, port, stored):
                self._build_and_inject(attr, op, port, stored)
            else:
                self.ctx.metrics.aip_sets_declined += 1

    def _update_estimates(self) -> None:
        """UPDATEESTIMATES: feed actual output counts back in."""
        for node_id, physical in self.plan.by_node_id.items():
            counters = self.ctx.metrics.operators.get(physical.op_id)
            if counters is None:
                continue
            complete = physical._output_done or (
                isinstance(physical, PScan) and physical.exhausted
            )
            self.estimator.observe(node_id, counters.tuples_out, complete)

    # -- ESTIMATEBENEFIT ------------------------------------------------------

    def _link_params(self, site: Optional[str]) -> Tuple[float, float]:
        """(latency, bandwidth) toward ``site``: the run's network model
        when one is attached, else the cost model's uniform constants."""
        cm = self.ctx.cost_model
        network = getattr(self.ctx, "network", None)
        if network is not None and site is not None:
            link = network.link_to(site)
            return link.latency, link.bandwidth
        return cm.network_latency, cm.network_bandwidth

    @staticmethod
    def _partition_group_id(target: Operator) -> Optional[int]:
        """Logical-scan id grouping the partitions of one fanned-out
        table, or None for ordinary targets."""
        if (
            isinstance(target, PScan)
            and target.partition_index is not None
            and getattr(target, "logical", None) is not None
        ):
            return target.logical.node_id
        return None

    def _estimate_benefit(
        self, attr: str, op: Operator, port: int, stored: int
    ) -> bool:
        cm = self.ctx.cost_model
        create_cost = self.coster.aip_build_cost(stored)
        d_set = self._set_distinct(attr, op, port, stored)
        filter_bytes = self._filter_bytes(attr, stored)

        savings = 0.0
        used: Set[int] = set()
        grouped: Set[int] = set()
        targets = self.live_targets(attr, exclude=(op.op_id, port))
        # "for n in InterestedIn[A] in inverse order of depth" — deepest
        # first, so benefits at lower nodes claim their ancestors.
        targets.sort(key=lambda t: -self._depth.get(t[0].op_id, 0))
        for target_op, target_port, target_attr in targets:
            group = self._partition_group_id(target_op)
            if group is not None:
                # All live partitions of one logical scan are ONE
                # target with many destinations: their disjoint streams
                # share the selectivity estimate and the downstream
                # walk, and sum the tuples still to arrive.
                if group in grouped:
                    continue
                grouped.add(group)
                siblings = [
                    t for t in targets
                    if self._partition_group_id(t[0]) == group
                ]
                remaining = 0.0
                live_parts = []
                for sibling, _sport, _sattr in siblings:
                    part_remaining = self._remaining_tuples(sibling, 0)
                    if part_remaining > 0:
                        remaining += part_remaining
                        live_parts.append((sibling, part_remaining))
                if remaining <= 0:
                    continue
            else:
                remaining = self._remaining_tuples(target_op, target_port)
                if remaining <= 0:
                    continue
                live_parts = None
            d_target = self._target_distinct(target_op, target_port, target_attr)
            sel = min(1.0, d_set / max(d_target, 1.0))
            sel_eff = sel + self.fp_rate * (1.0 - sel)
            pruned = remaining * (1.0 - sel_eff)
            probe_cost = remaining * cm.semijoin_probe

            per_tuple = self._per_tuple_cost(target_op)
            downstream = self._downstream_per_tuple(target_op, used)
            use_benefit = pruned * (per_tuple + downstream) - probe_cost

            if live_parts is not None:
                # Per-partition wire accounting: each partition's pruned
                # share skips its own link's (fan-out multiplied)
                # transfer, and shipping pays one filter copy per
                # partition.
                row_bytes = target_op.out_schema.row_byte_size()
                for part_scan, part_remaining in live_parts:
                    latency, bandwidth = self._link_params(part_scan.site)
                    fanout = getattr(part_scan.arrival, "fanout", 1)
                    part_pruned = part_remaining * (1.0 - sel_eff)
                    use_benefit += part_pruned * (
                        row_bytes * fanout / bandwidth
                    )
                    # Each shipped copy pays its link's latency plus
                    # transfer — the same delay activation charges.
                    create_cost += latency + filter_bytes / bandwidth
            elif isinstance(target_op, PScan) and target_op.site is not None:
                row_bytes = target_op.out_schema.row_byte_size()
                latency, bandwidth = self._link_params(target_op.site)
                fanout = getattr(target_op.arrival, "fanout", 1)
                use_benefit += pruned * (row_bytes * fanout / bandwidth)
                create_cost += latency + filter_bytes / bandwidth

            if use_benefit > 0:
                savings += use_benefit
                claim = group if group is not None else target_op.op_id
                used.add(claim)
                used.update(self._ancestor_ids(claim))
        return savings > create_cost * self.BENEFIT_MARGIN

    def _remaining_tuples(self, target: Operator, port: int) -> float:
        """Expected tuples still to arrive on a target port."""
        if isinstance(target, PScan):
            total = float(len(target.rows))
            seen = float(self.ctx.metrics.counters(target.op_id).tuples_in)
            return max(0.0, total - seen)
        child = target.children[port]
        if child is None:
            return 0.0
        child_logical = getattr(child, "logical", None)
        if child_logical is None:
            return 0.0
        total = self.estimator.estimate(child_logical).rows
        seen = float(self.ctx.metrics.counters(target.op_id).tuples_in)
        if target.n_inputs > 1:
            # Counters aggregate both ports; halve as an approximation.
            seen /= 2.0
        return max(0.0, total - seen)

    def _set_distinct(self, attr: str, op: Operator, port: int, stored: int) -> float:
        logical = getattr(op, "logical", None)
        if logical is not None and port < len(logical.children):
            est = self.estimator.estimate(logical.children[port])
            return min(float(stored), est.distinct_of(attr))
        return float(stored)

    def _target_distinct(self, target: Operator, port: int, attr: str) -> float:
        if isinstance(target, PScan):
            logical = getattr(target, "logical", None)
        else:
            child = target.children[port]
            logical = getattr(child, "logical", None) if child is not None else None
        if logical is None:
            return 1.0
        return self.estimator.estimate(logical).distinct_of(attr)

    def _per_tuple_cost(self, target: Operator) -> float:
        cm = self.ctx.cost_model
        if isinstance(target, PScan):
            # Pruning at a scan saves the per-tuple work of everything
            # between the scan and the next stateful operator, which is
            # approximated by the downstream walk; locally only the
            # emission cost is saved.
            return cm.tuple_base
        return cm.tuple_base + cm.hash_probe + cm.hash_insert

    def _downstream_per_tuple(self, target: Operator, used: Set[int]) -> float:
        """Expected downstream cost of one tuple entering ``target``,
        following estimated fan-out through its ancestors and skipping
        nodes whose benefit was already claimed (the ``used`` set)."""
        cm = self.ctx.cost_model
        logical = getattr(target, "logical", None)
        if logical is None:
            return 0.0
        total = 0.0
        fan = 1.0
        node = logical
        for _ in range(64):  # cycle guard; plans are shallow
            parents = self._parents.get(node.node_id)
            if not parents:
                break
            parent, _port = parents[0]
            in_rows = max(self.estimator.estimate(node).rows, 1.0)
            out_rows = self.estimator.estimate(parent).rows
            if parent.node_id not in used:
                total += fan * (cm.tuple_base + cm.hash_probe)
            fan *= max(out_rows / in_rows, 0.0)
            fan = min(fan, 64.0)  # keep the walk numerically sane
            node = parent
        return total

    def _ancestor_ids(self, node_id: int) -> Set[int]:
        out: Set[int] = set()
        frontier = [node_id]
        while frontier:
            current = frontier.pop()
            for parent, _port in self._parents.get(current, ()):
                if parent.node_id not in out:
                    out.add(parent.node_id)
                    frontier.append(parent.node_id)
        return out

    def _filter_bytes(self, attr: str, stored: int) -> int:
        from repro.summaries.bloom import bits_for
        return bits_for(max(stored, 1), self.fp_rate, self.n_hashes) // 8 + 1

    # -- construction and injection -------------------------------------------

    def _build_and_inject(
        self, attr: str, op: Operator, port: int, stored: int
    ) -> None:
        cm = self.ctx.cost_model
        spec = AIPSetSpec(
            self.graph.eq.find(attr),
            stored,
            kind=BLOOM,
            fp_rate=self.fp_rate,
            n_hashes=self.n_hashes,
        )
        self.ctx.charge(stored * cm.aip_build_per_row)
        aip_set = AIPSet.from_values(
            attr, spec, "CB:%s#%d:%d" % (op.name, op.op_id, port),
            op.state_values(port, attr),
        )
        # Built from complete state and never written again: frozen,
        # like every published set, before any filter memoises it.
        aip_set.summary.freeze()
        self.ctx.metrics.adjust_state(self._state_owner, aip_set.byte_size())
        self.ctx.metrics.aip_sets_created += 1
        self.ctx.notify_aip_publish(op, port, aip_set)

        for target, target_port, target_attr in self.live_targets(
            attr, exclude=(op.op_id, port)
        ):
            if isinstance(target, PScan) and target.site is not None:
                self._ship_to_source(target, target_attr, aip_set)
            else:
                self._install(
                    target, target_port, target_attr, aip_set,
                    aip_set.source_label,
                )

    def _ship_to_source(
        self, scan: PScan, attr: str, aip_set: AIPSet
    ) -> None:
        """Distributed AIP: send the filter to the remote site; it takes
        effect after polling staleness plus transfer time.

        Bloom filters cross the simulated wire by value — geometry plus
        the word buffer (:meth:`BloomFilter.to_payload`) — so the remote
        site holds its own copy, exactly as a real deployment would.
        The copy is built from completed state and never mutated, so
        probe outcomes are identical to sharing the object.
        """
        ship_key = (scan.op_id, aip_set.eq_root)
        if ship_key in self._shipped:
            return
        self._shipped.add(ship_key)
        size = aip_set.byte_size()
        latency, bandwidth = self._link_params(scan.site)
        activation = (
            self.ctx.metrics.clock
            + self.poll_interval / 2.0
            + latency
            + size / bandwidth
        )
        summary = aip_set.summary
        if isinstance(summary, BloomFilter):
            summary = type(summary).from_payload(summary.to_payload())
        scan.install_source_filter(attr, summary, activation)
        self.ctx.metrics.aip_bytes_shipped += size
