"""AIPCANDIDATES (Figure 3 of the paper).

Precomputes, from the query plan and its conjunctive predicates:

* ``Sources[A]`` — the stateful ``(operator, port)`` pairs whose
  buffered state can yield an AIP set over attribute ``A`` ("the source
  nodes are the children of (i.e. inputs to) state-producing operators,
  whose results are stored within the operators");
* ``InterestedIn[A]`` — the parties whose input can be filtered by a
  set over ``A``: any party carrying an attribute transitively equated
  to ``A`` (``EQ``), restricted for group-bys to their grouping keys
  (filtering a group-by input on a non-key attribute could change
  surviving groups' aggregates).

Scans are included among the interested parties: injecting at a scan
prunes earliest, and remote scans are where distributed AIP ships
filters.  A scan registers interest in every output column equated
elsewhere, and on every Table I plan each class with a producer holds
some scan's column, so Feed-Forward's elimination of candidates nobody
is interested in drops nothing there.

:class:`AIPStrategy` is the core both AIP algorithms build on: one
AIPCANDIDATES per plan, one walk over the live targets of a set, and
one step that installs a filter or intersects it into the one already
there.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.aip.sets import AIPSet, intersect_frozen
from repro.exec.context import ExecutionContext, ExecutionStrategy
from repro.exec.operators.base import InjectedFilter, Operator
from repro.exec.operators.groupby import PGroupBy
from repro.exec.operators.scan import PScan
from repro.exec.translate import PhysicalPlan
from repro.optimizer.predicate_graph import SourcePredicateGraph
from repro.plan.logical import fresh_node_id

Party = Tuple[int, int]


class CandidateIndex:
    """Output of AIPCANDIDATES, plus lookup helpers."""

    def __init__(self):
        #: attr -> parties whose state can produce a set over attr
        self.sources: Dict[str, Set[Party]] = {}
        #: eq-class root -> interested parties (Feed-Forward's registry
        #: drops parties from these sets as their inputs finish)
        self.interested: Dict[str, Set[Party]] = {}
        #: (party, eq-root) -> the attribute that party is filterable on
        self.party_attr: Dict[Tuple[Party, str], str] = {}
        #: party -> attrs its state can summarise
        self.producible: Dict[Party, List[str]] = {}

    def interested_in(self, graph: SourcePredicateGraph, attr: str) -> Set[Party]:
        root = graph.eq.find(attr)
        return set(self.interested.get(root, ()))

    def attr_at(self, graph: SourcePredicateGraph, party: Party,
                attr: str) -> str:
        """The attribute name by which ``party`` participates in
        ``attr``'s equivalence class."""
        root = graph.eq.find(attr)
        return self.party_attr.get((party, root))

    def split_producible(
        self, op: Operator, port: int
    ) -> Tuple[List[str], List[str]]:
        """A stateful party's producible attributes, split into those
        its arriving tuples carry (working-set material) and those only
        its completed state yields (a group-by's aggregate outputs)."""
        filterable = _filterable_attrs(op, port)
        attrs = self.producible.get((op.op_id, port), ())
        return (
            [a for a in attrs if a in filterable],
            [a for a in attrs if a not in filterable],
        )

    def live_targets(
        self, plan: PhysicalPlan, graph: SourcePredicateGraph, attr: str,
        exclude: Party, at_scans: bool,
    ) -> List[Tuple[Operator, int, str]]:
        """The parties interested in ``attr``'s class, ``exclude``
        aside, whose input is still open (a scan not exhausted, a port
        not done), each as ``(operator, port, its own attribute)``;
        without ``at_scans``, stateful inputs only."""
        out = []
        for party in self.interested_in(graph, attr):
            if party == exclude:
                continue
            node_id, port = party
            target = plan.by_node_id.get(node_id)
            if target is None:
                continue
            if isinstance(target, PScan):
                if target.exhausted or not at_scans:
                    continue
            elif target.input_done(port):
                continue
            target_attr = self.attr_at(graph, party, attr)
            if target_attr is None:
                continue
            out.append((target, port, target_attr))
        return out


def _filterable_attrs(op: Operator, port: int) -> List[str]:
    if isinstance(op, PScan):
        return list(op.out_schema.names)
    if isinstance(op, PGroupBy):
        return list(op.keys)
    return list(op.input_schemas[port].names)


def _producible_attrs(op: Operator, port: int) -> List[str]:
    """Attributes recoverable from the operator's buffered state."""
    if isinstance(op, PGroupBy):
        return list(op.keys) + [s.output_name for s in op._specs]
    return list(op.input_schemas[port].names)


def aip_candidates(
    plan: PhysicalPlan, graph: SourcePredicateGraph
) -> CandidateIndex:
    """Compute candidate AIP set producers and users for a plan."""
    index = CandidateIndex()

    for op in plan.sink.walk():
        is_scan = isinstance(op, PScan)
        if not (is_scan or op.stateful):
            continue
        for port in range(1 if is_scan else op.n_inputs):
            party = (op.op_id, port)
            producible = [] if is_scan else [
                a for a in _producible_attrs(op, port)
                if graph.equated_elsewhere(a)
            ]
            for attr in producible:
                index.sources.setdefault(attr, set()).add(party)
            if producible:
                index.producible[party] = producible
            for attr in _filterable_attrs(op, port):
                if graph.equated_elsewhere(attr):
                    root = graph.eq.find(attr)
                    index.interested.setdefault(root, set()).add(party)
                    index.party_attr[(party, root)] = attr

    return index


class AIPStrategy(ExecutionStrategy):
    """What Feed-Forward and Cost-Based AIP share.

    Per plan, :meth:`attach` builds the source-predicate graph, its
    AIPCANDIDATES index and an owner id for AIP-set state bytes.  The
    algorithms differ only in when a set is built; once built, a set
    goes to :meth:`live_targets` through :meth:`_install`, and
    :meth:`on_query_end` releases whatever set state is left.
    """

    #: On a merge, the replacement filter takes the new set's label
    #: (Feed-Forward's ``a∩b`` provenance) instead of keeping the
    #: installed filter's (Cost-Based).
    relabel_on_merge = False

    #: Whether sets also filter scans, not only stateful inputs
    #: (Feed-Forward's ablation turns it off).
    inject_at_scans = True

    _state_owner: Optional[int] = None

    def attach(self, ctx: ExecutionContext, plan: PhysicalPlan) -> None:
        self.ctx = ctx
        self.plan = plan
        self.graph = SourcePredicateGraph.from_plan(plan.logical_root)
        self.index = aip_candidates(plan, self.graph)
        self._state_owner = fresh_node_id()
        #: (target party, eq root) -> the filter installed there
        self._injected: Dict[Tuple[Party, str], InjectedFilter] = {}

    def live_targets(
        self, attr: str, exclude: Party
    ) -> List[Tuple[Operator, int, str]]:
        return self.index.live_targets(
            self.plan, self.graph, attr, exclude, self.inject_at_scans,
        )

    def _install(
        self, target: Operator, port: int, attr: str, aip_set: AIPSet,
        label: str, merged: bool = False,
    ) -> None:
        """Filter ``(target, port)`` by ``aip_set``: intersected into the
        filter already installed there for its class when the Bloom
        geometry allows (Section IV-B: a stronger filter replaces the
        weaker one), registered beside it otherwise.  A ``merged`` set
        is the registry's intersection of the class's earlier sets,
        whose bits the installed filter already holds: it replaces that
        filter as it is, shared by every target."""
        key = ((target.op_id, port), aip_set.eq_root)
        existing = self._injected.get(key)
        if existing is None:
            summary = None
        elif merged:
            summary = aip_set.summary
        else:
            summary = intersect_frozen(existing.summary, aip_set.summary)
        if summary is None:
            injected = target.register_filter(
                port, attr, aip_set.summary, label
            )
        else:
            injected = InjectedFilter(
                existing.key_index, attr, summary,
                label if self.relabel_on_merge else existing.label,
            )
            target.replace_filter(port, existing, injected)
        self._injected[key] = injected

    def on_query_end(self) -> None:
        # Release remaining AIP set state.
        if self._state_owner is not None:
            remaining = self.ctx.metrics.state_bytes_of(self._state_owner)
            if remaining:
                self.ctx.metrics.adjust_state(self._state_owner, -remaining)
