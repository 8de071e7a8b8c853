"""Greedy Feed-Forward Filtering (Section IV-A of the paper).

The algorithm "requires minimal runtime decision-making and no runtime
statistics collection [and] optimistically creates and uses every
potentially useful AIP set":

* **Query initialization** — every stateful operator registers, per
  input, a candidate AIP set for each attribute it produces and
  interest in every attribute transitively equated to one of its own
  but produced elsewhere.  Candidates nobody wants are eliminated.
  Each surviving producer creates an incremental *working copy*.
* **Query execution** — arriving tuples are probed against completed
  AIP sets (via the engine's injected-filter mechanism) and recorded
  into the operator's working sets.  When an input completes, its
  working sets are published to the registry (merged by intersection
  when possible) and injected into all interested, still-live targets;
  the operator drops its interest, and producers of classes with no
  remaining interest discard their working sets.

Beyond tuples received, a group-by also publishes completion-time sets
over its *aggregate outputs* (e.g. the MIN supply costs of Q1/Q3),
which are only known once its input finishes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.aip.registry import AIPRegistry, Party
from repro.aip.sets import BLOOM, AIPSet, AIPSetSpec
from repro.exec.context import ExecutionContext, ExecutionStrategy
from repro.exec.operators.base import InjectedFilter, Operator
from repro.exec.operators.groupby import PGroupBy
from repro.exec.operators.scan import PScan
from repro.exec.translate import PhysicalPlan
from repro.optimizer.predicate_graph import SourcePredicateGraph

#: Default expected-items fallback when statistics offer nothing.
DEFAULT_EXPECTED = 1024


class _WorkingSet:
    """One incrementally built AIP set on a (operator, port)."""

    __slots__ = ("attr", "key_index", "aip_set", "party")

    def __init__(self, attr: str, key_index: int, aip_set: AIPSet, party: Party):
        self.attr = attr
        self.key_index = key_index
        self.aip_set = aip_set
        self.party = party


class FeedForwardStrategy(ExecutionStrategy):
    """The paper's greedy Feed-Forward AIP algorithm."""

    def __init__(
        self,
        fp_rate: float = 0.05,
        summary_kind: str = BLOOM,
        n_hashes: int = 1,
        inject_at_scans: bool = True,
        prune_uninterested: bool = True,
        memory_budget: Optional[int] = None,
        enable_range_filters: bool = False,
    ):
        self.fp_rate = fp_rate
        self.summary_kind = summary_kind
        self.n_hashes = n_hashes
        #: Inject published sets into scans as well as stateful inputs
        #: (Examples 3.1/3.2 inject semijoins "after PS2 is read").
        self.inject_at_scans = inject_at_scans
        #: Ablation knob: keep candidates nobody is interested in.
        self.prune_uninterested = prune_uninterested
        #: Section V memory overflow: bound the bytes spent on working
        #: AIP sets; over budget, sets are shrunk (hash sets, per
        #: bucket) or discarded (Bloom filters) — a performance, not
        #: correctness, decision.  None = unbounded.
        self.memory_budget = memory_budget
        #: Section III-C extension: pass *range* information (min/max
        #: bounds) across join residual inequalities.
        self.enable_range_filters = enable_range_filters
        self.ctx: Optional[ExecutionContext] = None
        self.plan: Optional[PhysicalPlan] = None
        self.registry: Optional[AIPRegistry] = None
        self._working: Dict[Tuple[int, int], List[_WorkingSet]] = {}
        self._completion_attrs: Dict[Tuple[int, int], List[str]] = {}
        self._interest_attr: Dict[Tuple[Party, str], str] = {}
        self._injected: Dict[Tuple[Party, int], InjectedFilter] = {}
        self._range_opps: Dict[Tuple[int, int], List[Tuple[str, str, str]]] = {}
        self._state_owner: Optional[int] = None
        self._budget_check_countdown = 0
        self.working_sets_discarded = 0

    def describe(self) -> str:
        return "feed-forward"

    # -- initialization -----------------------------------------------------

    def attach(self, ctx: ExecutionContext, plan: PhysicalPlan) -> None:
        self.ctx = ctx
        self.plan = plan
        graph = SourcePredicateGraph.from_plan(plan.logical_root)
        self.registry = AIPRegistry(graph)
        self.registry.subscribe(self._on_published)
        from repro.plan.logical import fresh_node_id
        self._state_owner = fresh_node_id()

        operators = list(plan.sink.walk())

        # Pass 1: register candidates and interest.
        for op in operators:
            if isinstance(op, PScan):
                party = (op.op_id, 0)
                for attr in op.out_schema.names:
                    if graph.equated_elsewhere(attr):
                        self.registry.register_interest(attr, party)
                        self._interest_attr[
                            (party, self.registry.root_of(attr))
                        ] = attr
                continue
            if not op.stateful:
                continue
            for port in range(op.n_inputs):
                party = (op.op_id, port)
                for attr in self._filterable_attrs(op, port):
                    if graph.equated_elsewhere(attr):
                        self.registry.register_candidate(attr, party)
                        self.registry.register_interest(attr, party)
                        self._interest_attr[
                            (party, self.registry.root_of(attr))
                        ] = attr
                for attr in self._completion_only_attrs(op, port):
                    if graph.equated_elsewhere(attr):
                        self.registry.register_candidate(attr, party)
                        self._completion_attrs.setdefault(party, []).append(attr)

        # Pass 2: eliminate unwanted candidates.
        if self.prune_uninterested:
            self.registry.eliminate_unwanted_candidates()

        # Pass 3: shared geometry per surviving class.
        self._build_specs(graph)

        # Optional: index range-passing opportunities over join
        # residual inequalities (Section III-C extension).
        if self.enable_range_filters:
            self._index_range_opportunities(plan)

        # Pass 4: working copies for surviving producers.
        for op in operators:
            if not op.stateful:
                continue
            for port in range(op.n_inputs):
                party = (op.op_id, port)
                sets = []
                for attr in self._filterable_attrs(op, port):
                    if not graph.equated_elsewhere(attr):
                        continue
                    if self.prune_uninterested and not self.registry.is_wanted(attr):
                        continue
                    spec = self.registry.spec_for(attr)
                    if spec is None:
                        continue
                    schema = op.input_schemas[port]
                    ws = _WorkingSet(
                        attr,
                        schema.index_of(attr),
                        AIPSet(attr, spec, "%s:%d" % (op.name, port)),
                        party,
                    )
                    self.ctx.metrics.adjust_state(
                        self._state_owner, ws.aip_set.byte_size()
                    )
                    sets.append(ws)
                if sets:
                    self._working[party] = sets

    def _filterable_attrs(self, op: Operator, port: int) -> List[str]:
        """Attributes of one input usable both as working-set material
        and as filter keys.  Group-bys are restricted to their keys:
        pruning a group-by input on a non-key attribute could remove
        rows from surviving groups and change aggregates."""
        if isinstance(op, PGroupBy):
            return list(op.keys)
        return list(op.input_schemas[port].names)

    def _completion_only_attrs(self, op: Operator, port: int) -> List[str]:
        """Computed attributes only known when the input completes."""
        if isinstance(op, PGroupBy):
            return [s.output_name for s in op._specs]
        return []

    def _build_specs(self, graph: SourcePredicateGraph) -> None:
        stats_cache = {}
        for group in graph.eq_classes():
            expected = 0
            for attr in group:
                origin = graph.origins.get(attr)
                if origin is None:
                    continue
                table, column = origin
                stats = stats_cache.get(table)
                if stats is None:
                    stats = self.ctx.catalog.stats(table)
                    stats_cache[table] = stats
                expected = max(expected, stats.distinct.get(column, 0))
            root = self.registry.root_of(next(iter(group)))
            self.registry.set_spec(
                root,
                AIPSetSpec(
                    root,
                    expected or DEFAULT_EXPECTED,
                    kind=self.summary_kind,
                    fp_rate=self.fp_rate,
                    n_hashes=self.n_hashes,
                ),
            )

    def _index_range_opportunities(self, plan: PhysicalPlan) -> None:
        """Find join residual conjuncts ``ColA <op> ColB`` with the two
        columns on opposite inputs; when one input completes, a bound
        filter can prune the other."""
        from repro.expr.expressions import Cmp, Col, conjuncts_of
        from repro.plan.logical import Join

        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
        for node in plan.logical_root.walk():
            if not isinstance(node, Join) or node.residual is None:
                continue
            for conjunct in conjuncts_of(node.residual):
                if not isinstance(conjunct, Cmp) or conjunct.op not in flip:
                    continue
                if not (
                    isinstance(conjunct.left, Col)
                    and isinstance(conjunct.right, Col)
                ):
                    continue
                a, b = conjunct.left.name, conjunct.right.name
                sides = {}
                for port, child in enumerate(node.children):
                    for attr in (a, b):
                        if attr in child.schema:
                            sides[attr] = port
                if sides.get(a) is None or sides.get(b) is None:
                    continue
                if sides[a] == sides[b]:
                    continue
                # When the side holding `b` completes, rows streaming in
                # with `a` must satisfy a <op> (bound over b); vice versa
                # with the operator flipped.
                self._range_opps.setdefault(
                    (node.node_id, sides[b]), []
                ).append((b, a, conjunct.op))
                self._range_opps.setdefault(
                    (node.node_id, sides[a]), []
                ).append((a, b, flip[conjunct.op]))

    # -- execution hooks ------------------------------------------------------

    def after_tuples_page(self, op: Operator, port: int, page) -> None:
        """Working-set maintenance, one call per accepted page: each
        row's key goes into every working set on ``(op, port)``, one
        ``aip_insert`` charged per row per set.  Working sets only need
        key columns, which the :class:`~repro.exec.pages.ColumnBatch`
        hands over zero-copy.  Under a memory budget the shed check
        runs every 256 rows inserted: the page goes in as chunks that
        end where the countdown does, so the sets overshoot the budget
        by at most 256 rows' worth, whatever the page size."""
        party = (op.op_id, port)
        sets = self._working.get(party)
        if not sets:
            return
        charge = self.ctx.cost_model.aip_insert
        if self.memory_budget is None:
            self.ctx.charge_events(page.n_rows * len(sets), charge)
            for ws in sets:
                ws.aip_set.add_many(page.columns[ws.key_index])
            return
        at = 0
        while sets and at < page.n_rows:
            end = min(page.n_rows, at + max(1, self._budget_check_countdown))
            self.ctx.charge_events((end - at) * len(sets), charge)
            for ws in sets:
                ws.aip_set.add_many(page.columns[ws.key_index][at:end])
            self._budget_check_countdown -= end - at
            at = end
            if self._budget_check_countdown <= 0:
                self._budget_check_countdown = 256
                self._enforce_budget()
                sets = self._working.get(party)

    def _enforce_budget(self) -> None:
        """Shed working-set state until under the configured budget.

        Hash-set summaries shrink per bucket (paper Section V: "one can
        discard portions, on a per-bucket basis"); fixed-size summaries
        (Bloom) are discarded whole, largest first.
        """
        from repro.summaries.hashset import HashSetSummary

        while (
            self.ctx.metrics.state_bytes_of(self._state_owner)
            > self.memory_budget
        ):
            victim_party, victim = None, None
            for party, sets in self._working.items():
                for ws in sets:
                    if victim is None or (
                        ws.aip_set.byte_size() > victim.aip_set.byte_size()
                    ):
                        victim_party, victim = party, ws
            if victim is None:
                break  # nothing left to shed
            before = victim.aip_set.byte_size()
            summary = victim.aip_set.summary
            if isinstance(summary, HashSetSummary) and summary.byte_size() > 64:
                summary.shrink_to(max(64, summary.byte_size() // 2))
                reclaimed = before - victim.aip_set.byte_size()
                if reclaimed <= 0:
                    self._drop_working_set(victim_party, victim)
                else:
                    self.ctx.metrics.adjust_state(self._state_owner, -reclaimed)
            else:
                self._drop_working_set(victim_party, victim)

    def _drop_working_set(self, party: Tuple[int, int], ws: _WorkingSet) -> None:
        sets = self._working.get(party, [])
        if ws in sets:
            sets.remove(ws)
            if not sets:
                self._working.pop(party, None)
            self.ctx.metrics.adjust_state(
                self._state_owner, -ws.aip_set.byte_size()
            )
            self.working_sets_discarded += 1

    def on_input_finished(self, op: Operator, port: int) -> None:
        party = (op.op_id, port)

        # Publish working sets built from received tuples.
        for ws in self._working.pop(party, ()):  # noqa: B020
            self.ctx.metrics.aip_sets_created += 1
            self.ctx.notify_aip_publish(op, port, ws.aip_set)
            self.registry.publish(ws.aip_set)

        # Publish completion-time sets over computed attributes.
        cm = self.ctx.cost_model
        for attr in self._completion_attrs.pop(party, ()):
            spec = self.registry.spec_for(attr)
            if spec is None or (
                self.prune_uninterested and not self.registry.is_wanted(attr)
            ):
                continue
            # Build straight from the state iterator — one pass, no
            # intermediate list — then charge from the element count the
            # summary recorded (identical to pre-counting the values).
            aip_set = AIPSet.from_values(
                attr, spec, "%s:%d!" % (op.name, port),
                op.state_values(port, attr),
            )
            self.ctx.charge(aip_set.summary.n_added * cm.aip_build_per_row)
            self.ctx.metrics.adjust_state(self._state_owner, aip_set.byte_size())
            self.ctx.metrics.aip_sets_created += 1
            self.ctx.notify_aip_publish(op, port, aip_set)
            self.registry.publish(aip_set)

        # Range-passing: completed side of a residual inequality yields
        # a bound filter for the still-streaming side.
        if self.enable_range_filters:
            self._publish_range_bounds(op, port)

        # Decrement interest; discard working sets nobody can use now.
        emptied = self.registry.drop_interest(party)
        if emptied:
            for other_party, sets in list(self._working.items()):
                kept = []
                for ws in sets:
                    if self.registry.root_of(ws.attr) in emptied:
                        self.ctx.metrics.adjust_state(
                            self._state_owner, -ws.aip_set.byte_size()
                        )
                    else:
                        kept.append(ws)
                if kept:
                    self._working[other_party] = kept
                else:
                    self._working.pop(other_party, None)

    def _publish_range_bounds(self, op: Operator, port: int) -> None:
        opportunities = self._range_opps.get((op.op_id, port))
        if not opportunities or not op.state_complete(port):
            return
        from repro.summaries.bounds import BoundSummary, MinMaxSummary

        other = 1 - port
        if op.input_done(other):
            return
        cm = self.ctx.cost_model
        for completed_attr, streaming_attr, streaming_op in opportunities:
            minmax = MinMaxSummary()
            n = minmax.add_many(op.state_values(port, completed_attr))
            self.ctx.charge(n * cm.aip_build_per_row)
            bound = BoundSummary.for_predicate(streaming_op, minmax)
            if bound is None:
                continue
            op.register_filter(
                other, streaming_attr, bound,
                label="FF-range:%s" % completed_attr,
            )
            self.ctx.metrics.aip_sets_created += 1

    def on_query_end(self) -> None:
        # Release remaining AIP set state.
        if self._state_owner is not None:
            remaining = self.ctx.metrics.state_bytes_of(self._state_owner)
            if remaining:
                self.ctx.metrics.adjust_state(self._state_owner, -remaining)

    # -- filter injection -------------------------------------------------------

    def _on_published(self, root: str, aip_set: AIPSet, replaced: bool) -> None:
        for party in self.registry.interested_parties(aip_set.attr):
            node_id, port = party
            op = self.plan.by_node_id.get(node_id)
            if op is None:
                continue
            attr = self._interest_attr.get((party, root))
            if attr is None:
                continue
            if isinstance(op, PScan):
                if not self.inject_at_scans or op.exhausted:
                    continue
            elif op.input_done(port):
                continue
            existing = self._injected.get((party, id(aip_set.spec)))
            label = "FF:%s" % aip_set.source_label
            if replaced and existing is not None:
                new = InjectedFilter(
                    existing.key_index, attr, aip_set.summary, label
                )
                op.replace_filter(port, existing, new)
                self._injected[(party, id(aip_set.spec))] = new
            else:
                injected = op.register_filter(port, attr, aip_set.summary, label)
                self._injected[(party, id(aip_set.spec))] = injected
