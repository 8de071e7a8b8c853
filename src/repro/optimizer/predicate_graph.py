"""The source-predicate graph (Section IV-A of the paper).

"During query optimization, the system creates a source-predicate graph
describing the predicates (edges) between table variables (nodes)."
Its essential service — for both AIP algorithms — is the function
``EQ``: the set of attributes *transitively equated* by the query's
correlation predicates.  We implement it as a union-find over attribute
names, fed by:

* equi-join key pairs,
* semijoin key pairs,
* ``col = col`` conjuncts in filters and join residuals,
* projection passthroughs (an output column renaming an input column
  refers to the same values).

Attribute names must be unique across independent branches of a query
(the workload queries guarantee this with scan prefixes), so name-based
equivalence is sound.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.expr.expressions import Col, conjuncts_of
from repro.plan.logical import (
    Filter, Join, LogicalNode, Project, Scan, SemiJoin,
)


class UnionFind:
    """Disjoint sets over hashable items, with path compression.

    Class membership reads a map from each item to its class, built on
    first use and rebuilt after a :meth:`union`: a plan's graph is
    built once and then asked about its classes hundreds of times, so
    each ``members`` call is one dict lookup instead of a ``find`` per
    item.
    """

    def __init__(self):
        self._parent: Dict = {}
        #: item -> frozenset of its class; None until read after a union
        self._classes: Optional[Dict] = None

    def find(self, item):
        parent = self._parent.setdefault(item, item)
        if parent == item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[ra] = rb
            self._classes = None

    def _class_map(self) -> Dict:
        # ``find`` registers an unseen item as a singleton; rebuild then
        # too, so ``groups`` lists it.
        if self._classes is None or len(self._classes) != len(self._parent):
            by_root: Dict = {}
            for item in list(self._parent):
                by_root.setdefault(self.find(item), []).append(item)
            self._classes = {}
            for items in by_root.values():
                group = frozenset(items)
                for item in items:
                    self._classes[item] = group
        return self._classes

    def members(self, item) -> FrozenSet:
        """``item``'s class; an item never seen is a class of its own."""
        group = self._class_map().get(item)
        return group if group is not None else frozenset((item,))

    def groups(self) -> List[FrozenSet]:
        """Every class once, in first-seen order."""
        return list({id(g): g for g in self._class_map().values()}.values())


class PredicateEdge:
    """One correlation predicate between two plan attributes."""

    __slots__ = ("left_attr", "right_attr", "node_id")

    def __init__(self, left_attr: str, right_attr: str, node_id: int):
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.node_id = node_id

    def __repr__(self) -> str:
        return "PredicateEdge(%s = %s @#%d)" % (
            self.left_attr, self.right_attr, self.node_id,
        )


class SourcePredicateGraph:
    """Attribute equivalence plus bookkeeping about where attributes live."""

    def __init__(self):
        self.eq = UnionFind()
        self.edges: List[PredicateEdge] = []
        #: attr name -> ids of scan nodes whose output carries it
        self.attr_scans: Dict[str, Set[int]] = {}
        #: attr name -> base (table, column) origin where known
        self.origins: Dict[str, Tuple[str, str]] = {}

    @classmethod
    def from_plan(cls, root: LogicalNode) -> "SourcePredicateGraph":
        graph = cls()
        for node in root.walk():
            graph._absorb(node)
        return graph

    def _absorb(self, node: LogicalNode) -> None:
        self.origins.update(node.column_origins)
        if isinstance(node, Scan):
            for name in node.schema.names:
                self.attr_scans.setdefault(name, set()).add(node.node_id)
            return
        if isinstance(node, Join):
            for lk, rk in node.key_pairs():
                self._add_equality(lk, rk, node.node_id)
            for conjunct in conjuncts_of(node.residual):
                self._maybe_equality(conjunct, node.node_id)
            return
        if isinstance(node, SemiJoin):
            for p, s in zip(node.probe_keys, node.source_keys):
                self._add_equality(p, s, node.node_id)
            return
        if isinstance(node, Filter):
            for conjunct in conjuncts_of(node.predicate):
                self._maybe_equality(conjunct, node.node_id)
            return
        if isinstance(node, Project):
            for name, expr in node.outputs:
                if isinstance(expr, Col) and expr.name != name:
                    self._add_equality(name, expr.name, node.node_id)
            return
        # GroupBy and Distinct keep attribute names; nothing to absorb.

    def _maybe_equality(self, conjunct, node_id: int) -> None:
        pair = getattr(conjunct, "is_column_equality", lambda: None)()
        if pair is not None:
            self._add_equality(pair[0], pair[1], node_id)

    def _add_equality(self, a: str, b: str, node_id: int) -> None:
        self.eq.union(a, b)
        self.edges.append(PredicateEdge(a, b, node_id))

    # -- queries --------------------------------------------------------

    def eq_class(self, attr: str) -> FrozenSet[str]:
        """``EQ(attr)``: all attributes transitively equated to it."""
        return self.eq.members(attr)

    def eq_classes(self) -> List[FrozenSet[str]]:
        """All non-singleton equivalence classes (connected components)."""
        return [g for g in self.eq.groups() if len(g) > 1]

    def equated_elsewhere(self, attr: str) -> FrozenSet[str]:
        """Attributes equated to ``attr`` but distinct from it."""
        return self.eq_class(attr) - frozenset((attr,))
