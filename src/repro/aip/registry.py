"""The AIP Registry (Section IV-A).

The registry is the central rendezvous of the Feed-Forward algorithm:

* stateful operators register **candidate** AIP sets for the attributes
  they produce, and **interest** in equivalence classes of attributes
  they could be filtered on (Feed-Forward seeds both from
  AIPCANDIDATES, :meth:`AIPRegistry.seed`);
* candidates without interested parties are eliminated before execution
  (a no-op on Table I's plans: scans register interest in every column
  equated elsewhere, and each class with a producer there holds some
  scan's column);
* for each connected component of the source-predicate graph the
  registry keeps a **vector of completed AIP sets**;
* publishing a completed set appends it to the class vector (merging by
  bitwise intersection when geometries allow) and freezes its Bloom
  summary;
* interest is reference-counted: when an operator's input completes it
  "decrements its interest in all the AIP sets it could have used", and
  producers whose class has no interest left discard their working sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.aip.sets import AIPSet, AIPSetSpec
from repro.optimizer.predicate_graph import SourcePredicateGraph
from repro.summaries.bloom import BloomFilter

if TYPE_CHECKING:
    from repro.aip.candidates import CandidateIndex

#: A registered party: ``(node_id, port)``.
Party = Tuple[int, int]


class AIPRegistry:
    """Tracks candidate sets, interest counts and completed-set vectors."""

    def __init__(self, graph: SourcePredicateGraph):
        self.graph = graph
        #: eq-class root -> parties interested in filters of this class
        self._interest: Dict[str, Set[Party]] = {}
        #: eq-class root -> producing parties that registered candidates
        self._producers: Dict[str, Set[Party]] = {}
        #: eq-class root -> vector of completed AIP sets
        self._vectors: Dict[str, List[AIPSet]] = {}
        #: eq-class root -> shared geometry spec
        self._specs: Dict[str, AIPSetSpec] = {}

    # -- setup ------------------------------------------------------------

    def root_of(self, attr: str) -> str:
        return self.graph.eq.find(attr)

    def set_spec(self, eq_root: str, spec: AIPSetSpec) -> None:
        self._specs[eq_root] = spec

    def spec_for(self, attr: str) -> Optional[AIPSetSpec]:
        return self._specs.get(self.root_of(attr))

    def seed(self, index: "CandidateIndex") -> None:
        """Register AIPCANDIDATES's output: every source as a candidate
        producer of its class, every interested party's interest.  The
        interest sets are the index's own: a party dropped here has
        finished its input and is no live target either, so the
        index's target walk stays the registry's, in the same order."""
        for attr, parties in index.sources.items():
            self._producers.setdefault(self.root_of(attr), set()).update(
                parties
            )
        self._interest.update(index.interested)

    def eliminate_unwanted_candidates(self) -> Set[str]:
        """Drop candidate classes nobody is interested in; returns the
        roots that survive.  ("Any potential AIP sets without interested
        parties are then eliminated.")"""
        surviving = set()
        for root, producers in list(self._producers.items()):
            interested = self._interest.get(root, set())
            # Useful iff some party other than the producer itself could
            # consume a filter of this class.
            if any(q != p for q in interested for p in producers):
                surviving.add(root)
            else:
                del self._producers[root]
        for root in surviving:
            self._vectors.setdefault(root, [])
        return surviving

    def is_wanted(self, attr: str) -> bool:
        return self.root_of(attr) in self._producers

    # -- execution-time flow ----------------------------------------------

    def publish(self, aip_set: AIPSet) -> Tuple[str, AIPSet]:
        """Append a completed set to its class vector; returns ``(eq
        root, the set now in the vector)``.

        Compatible Bloom filters merge by bitwise intersection, in which
        case the merged set *replaces* the previous vector entry and is
        what this returns (not ``aip_set``).  Bloom summaries are frozen
        on publication, the merged one too (no other kind is written
        after it): injected filters memoise their verdicts on them.
        """
        root = self.root_of(aip_set.attr)
        aip_set.complete = True
        if isinstance(aip_set.summary, BloomFilter):
            aip_set.summary.freeze()
        vector = self._vectors.setdefault(root, [])
        merged = vector[-1].try_intersect(aip_set) if vector else None
        if merged is None:
            vector.append(aip_set)
            return root, aip_set
        vector[-1] = merged
        return root, merged

    def vector(self, attr: str) -> List[AIPSet]:
        return list(self._vectors.get(self.root_of(attr), ()))

    def drop_interest(self, party: Party) -> Set[str]:
        """Remove ``party`` from every class it was interested in;
        returns the roots whose interest dropped to zero."""
        emptied = set()
        for root, parties in self._interest.items():
            if party in parties:
                parties.discard(party)
                if not parties:
                    emptied.add(root)
        return emptied
