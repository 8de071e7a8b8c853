"""Cross-query AIP-set cache: inter-query sideways information passing.

The paper's AIP algorithms pass information *sideways within one
query*: an AIP set summarising a completed subexpression filters other
parts of the same plan.  Across a workload stream the same
subexpressions recur — TPC-H 17 always aggregates the same LINEITEM
subtree, every Q1 variant scans the same filtered PART — so a set built
by one query is exactly the set a later query would rebuild.  This
cache extends the paper's algorithms across query boundaries:

* **harvest** — it subscribes to the execution context's AIP publish
  hook; every set a strategy publishes is keyed by the
  :func:`~repro.service.fingerprint.party_state_signature` of the state
  it summarises (the producing subexpression and attribute, never node
  ids, so independently built plans match);
* **soundness gate** — a set is cached only if the state it was built
  from is *pristine*: the full subexpression result, with no tuple
  pruned anywhere in the producing subtree by this query's own injected
  or source-side filters.  A pruned state is still sound inside its own
  query (the pruned tuples could not contribute *there*) but may lack
  values another query needs;
* **re-injection** — before a new plan runs, every party whose state
  signature hits the cache gets its remembered set injected into all
  interested parties of the new plan (the attached strategy's
  source-predicate graph and candidate index walked by
  :meth:`~repro.aip.candidates.CandidateIndex.live_targets`, i.e.
  exactly where an intra-query publish from that party would inject) —
  but from virtual time zero, before a single tuple flows.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.aip.candidates import CandidateIndex
from repro.aip.sets import AIPSet
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import InjectedFilter, Operator
from repro.exec.operators.scan import PScan
from repro.exec.translate import PhysicalPlan
from repro.optimizer.predicate_graph import SourcePredicateGraph
from repro.service.fingerprint import party_state_signature
from repro.service.lru import LruDict


#: Default resident-byte cap on cached summaries (16 MB).
DEFAULT_MAX_BYTES = 16 << 20


class AIPSetCache:
    """Completed AIP sets keyed by producing-state signature."""

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
    ):
        self._entries = LruDict(
            max_entries,
            byte_size_of=lambda aip_set: aip_set.byte_size(),
            max_bytes=max_bytes,
        )
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.rejected_tainted = 0
        self.filters_injected = 0

    # -- producer side ----------------------------------------------------

    def record(
        self, op: Operator, port: int, aip_set: AIPSet,
        ctx: ExecutionContext,
    ) -> bool:
        """Harvest one published set; returns True if it was cached.

        Intended as an ``aip_publish_hooks`` subscriber via
        :meth:`recorder`.
        """
        logical = getattr(op, "logical", None)
        if logical is None or port >= len(logical.children):
            return False
        if not self._state_pristine(op, port, ctx):
            self.rejected_tainted += 1
            return False
        key = party_state_signature(logical, port, aip_set.attr)
        existing = self._entries.get(key)  # refreshes recency
        if existing is not None and (
            self._degradation(aip_set) >= self._degradation(existing)
        ):
            return False
        # First set for this state, or a higher-precision replacement
        # for one that was budget-shrunk (discarded buckets pass
        # everything through, so less degradation prunes more).
        if not self._entries.put(key, aip_set):
            return False  # over the byte cap; existing entry kept
        self.stored += 1
        return True

    @staticmethod
    def _degradation(aip_set: AIPSet) -> int:
        """How lossy a set's summary is (0 = full precision)."""
        return getattr(aip_set.summary, "discarded_buckets", 0)

    def recorder(self, ctx: ExecutionContext):
        """A publish hook bound to one execution context."""
        return lambda op, port, aip_set: self.record(op, port, aip_set, ctx)

    def _state_pristine(
        self, op: Operator, port: int, ctx: ExecutionContext
    ) -> bool:
        """True when the state at ``(op, port)`` is the untouched
        subexpression result: nothing pruned at the operator's own
        inputs nor anywhere in the subtree feeding ``port``."""
        counters = ctx.metrics.operators.get(op.op_id)
        if counters is not None and counters.tuples_pruned:
            return False
        child = op.children[port]
        if child is None:
            return False
        for node in child.walk():
            counters = ctx.metrics.operators.get(node.op_id)
            if counters is not None and counters.tuples_pruned:
                return False
            if isinstance(node, PScan) and node.arrival.rows_filtered_at_source:
                return False
        return True

    # -- consumer side ----------------------------------------------------

    def lookup(self, logical, port: int, attr: str) -> Optional[AIPSet]:
        """Lookup with LRU recency refresh; hit/miss accounting is per
        *plan* (see :meth:`inject`), since one plan probes many
        party-attributes."""
        return self._entries.get(party_state_signature(logical, port, attr))

    def inject(
        self,
        physical: PhysicalPlan,
        ctx: ExecutionContext,
        graph: SourcePredicateGraph,
        index: CandidateIndex,
        at_scans: bool,
    ) -> List[InjectedFilter]:
        """Inject every cached set matching one of ``physical``'s
        producible parties into that plan's interested parties.

        ``graph`` and ``index`` are the plan's source-predicate graph
        and candidate index, as the attached AIP strategy built them,
        and ``at_scans`` is its ``inject_at_scans``.  Targets are its
        live targets, so injection sites are exactly those an
        intra-query publish from the matched party would have reached
        — just earlier.  Returns the injected filters (their
        ``pruned`` counters give per-query reuse stats).  One hit or
        miss is recorded per plan: the hit rate reads as "fraction of
        plans that found something reusable".
        """
        injected: List[InjectedFilter] = []
        seen: set = set()
        charged = False
        # Nothing cached yet: skip the signature lookups.
        producible = index.producible if self._entries else {}
        for party, attrs in producible.items():
            node_id, port = party
            op = physical.by_node_id.get(node_id)
            logical = getattr(op, "logical", None)
            if logical is None:
                continue
            for attr in attrs:
                cached = self.lookup(logical, port, attr)
                if cached is None:
                    continue
                if not charged:
                    # One manager-style consultation per plan with hits.
                    ctx.charge(ctx.cost_model.manager_invocation)
                    charged = True
                root = graph.eq.find(attr)
                for target, target_port, target_attr in index.live_targets(
                    physical, graph, attr, party, at_scans
                ):
                    dedup = ((target.op_id, target_port), root)
                    if dedup in seen:
                        continue
                    seen.add(dedup)
                    injected.append(target.register_filter(
                        target_port, target_attr, cached.summary,
                        label="XQ:%s" % cached.source_label,
                    ))
                    self.filters_injected += 1
        if injected:
            self.hits += 1
        else:
            self.misses += 1
        if ctx.tracer is not None:
            ctx.tracer.instant(
                "cache.aip.%s" % ("hit" if injected else "miss"),
                "cache", ctx.metrics.clock_ticks,
                {"filters_injected": len(injected)},
            )
        return injected

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def byte_size(self) -> int:
        """Resident bytes of all cached summaries."""
        return self._entries.byte_size()

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self.byte_size(),
            "hits": self.hits,
            "misses": self.misses,
            "stored": self.stored,
            "rejected_tainted": self.rejected_tainted,
            "filters_injected": self.filters_injected,
        }
