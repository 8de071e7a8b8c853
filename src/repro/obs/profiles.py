"""Retained per-query profiles: what each completed query cost.

The trace (:mod:`repro.obs.trace`) answers "what happened on the
timeline"; the registry (:mod:`repro.obs.registry`) answers "what does
the service look like in aggregate".  Neither can answer the operator's
question five minutes after the fact: *what did query 4217 cost, and
where was the optimizer wrong?*  A :class:`QueryProfile` is that
answer — plan signature, per-operator estimated-vs-actual rows (from
the engine's ``charge_op`` cardinality counters), the latency
breakdown on the service clock, and the spill/AIP/quota counters —
and a :class:`ProfileRing` retains the last N of them so the
``profile`` admin frame and the slow-query log can look finished
queries up by sequence number.

Profiles are JSON-ready end to end (:meth:`QueryProfile.as_dict` is
the ``profile`` frame's payload verbatim), and :meth:`QueryProfile
.render` produces the EXPLAIN-ANALYZE-style table the slow-query log
embeds.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional

#: Default ring capacity; overridden by ``ServiceConfig
#: .profile_retention``.
DEFAULT_RETENTION = 128


def plan_rows(physical, metrics, estimator) -> List[Dict]:
    """The one est-vs-actual walk over an executed plan.

    ``physical`` is an executed :class:`~repro.exec.translate
    .PhysicalPlan`, ``metrics`` the run's engine metrics, and
    ``estimator`` a :class:`~repro.optimizer.estimator
    .CardinalityEstimator` that was fed no runtime observations, so
    ``est_rows`` is what the static optimizer committed to.  Pre-order
    over the logical tree, one JSON-ready (and picklable — pool workers
    ship them back) row per visit; a shared subtree is expanded once
    and its later visits are flagged ``shared`` with no operator.
    Two readers sit on top: :func:`operator_table` and
    :func:`repro.obs.analyze.explain_analyze`.
    """
    rows: List[Dict] = []
    seen = set()

    def visit(node, depth) -> None:
        shared = node.node_id in seen
        seen.add(node.node_id)
        op = None if shared else physical.by_node_id.get(node.node_id)
        counters = (
            metrics.operators.get(op.op_id) if op is not None else None
        )
        actual = tuples_in = pruned = 0
        if counters is not None:
            actual = counters.tuples_out
            tuples_in = counters.tuples_in
            pruned = counters.tuples_pruned
        rows.append({
            "depth": depth,
            "operator": type(node).__name__,
            "label": node._label(),
            "est_rows": estimator.estimate(node).rows,
            "actual_rows": actual,
            "tuples_in": tuples_in,
            "pruned": pruned,
            "node_id": node.node_id,
            "shared": shared,
            # None: the translator rewrote this node away.
            "op_id": op.op_id if op is not None else None,
        })
        if not shared:
            for child in node.children:
                visit(child, depth + 1)

    try:
        visit(physical.logical_root, 0)
    finally:
        del visit  # it reaches itself through its closure: a cycle
    return rows


#: The :func:`plan_rows` keys a profile retains (the walk's
#: bookkeeping stays out of the ``profile`` frame).
_OPERATOR_KEYS = (
    "depth", "operator", "label", "est_rows", "actual_rows", "tuples_in",
    "pruned",
)


def operator_table(rows: List[Dict]) -> List[Dict]:
    """Per-operator est-vs-actual table from one plan's
    :func:`plan_rows`: every node that has a physical operator, once
    (rewritten-away nodes and repeat visits of a shared subtree are
    dropped), depth-annotated so the tree can be re-rendered
    client-side."""
    return [
        {key: row[key] for key in _OPERATOR_KEYS}
        for row in rows if row["op_id"] is not None
    ]


class QueryProfile:
    """Everything retained about one finished query."""

    __slots__ = (
        "seq", "label", "status", "tenant", "strategy", "signature",
        "batch", "arrival", "start", "finish", "rows", "reason",
        "state_estimate", "metrics", "operators",
    )

    def __init__(self, seq, label, status, tenant, strategy, signature,
                 batch, arrival, start, finish, rows, reason=None,
                 state_estimate=0.0, metrics=None, operators=None):
        self.seq = seq
        self.label = label
        self.status = status
        self.tenant = tenant
        self.strategy = strategy
        self.signature = signature
        self.batch = batch
        #: Virtual-clock milestones; ``start - arrival`` is queue wait,
        #: ``finish - start`` is execute time.
        self.arrival = arrival
        self.start = start
        self.finish = finish
        self.rows = rows
        self.reason = reason
        #: Admission's estimate in bytes, or None for a query dispatch
        #: never had to cost (a result-cache hit).
        self.state_estimate = state_estimate
        #: Flat engine-counter summary (same shape as the public
        #: result's ``metrics``); empty for sheds.
        self.metrics: Dict = metrics or {}
        #: Per-operator est-vs-actual table from :func:`operator_table`
        #: (empty for queries that never executed: sheds, cache hits,
        #: errors).
        self.operators: List[Dict] = operators or []

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.start - self.arrival

    @property
    def execute_seconds(self) -> float:
        return self.finish - self.start

    @classmethod
    def from_query(cls, query,
                   operators: Optional[List[Dict]] = None) -> "QueryProfile":
        """What is retained of a settled service
        :class:`~repro.service.query.Query`: everything but its plan
        and its rows (the ring outlives both)."""
        return cls(
            query.seq, query.label, query.status, query.tenant,
            query.strategy, query.signature, query.batch,
            query.arrival, query.start, query.finish, query.rows,
            reason=query.reason,
            state_estimate=query.known_state_estimate,
            metrics=query.metrics,
            operators=operators,
        )

    def as_dict(self) -> Dict:
        """The ``profile`` admin frame's JSON payload."""
        return {
            "seq": self.seq,
            "label": self.label,
            "status": self.status,
            "tenant": self.tenant,
            "strategy": self.strategy,
            "signature": self.signature,
            "batch": self.batch,
            "arrival": self.arrival,
            "start": self.start,
            "finish": self.finish,
            "latency_s": self.latency,
            "queue_wait_s": self.queue_wait,
            "execute_s": self.execute_seconds,
            "rows": self.rows,
            "reason": self.reason,
            "state_estimate_bytes": self.state_estimate,
            "metrics": dict(self.metrics),
            "operators": [dict(row) for row in self.operators],
        }

    def render(self) -> str:
        """EXPLAIN-ANALYZE-style text, embedded by the slow-query log."""
        lines = [
            "query #%d %s [%s] strategy=%s tenant=%s" % (
                self.seq, self.label, self.status, self.strategy,
                self.tenant,
            ),
            "latency %.6f vs (queue %.6f + execute %.6f); %d rows%s" % (
                self.latency, self.queue_wait, self.execute_seconds,
                self.rows,
                " (%s)" % self.reason if self.reason else "",
            ),
        ]
        if self.operators:
            lines.append("%-44s %11s %11s %9s" % (
                "operator", "est. rows", "actual", "pruned",
            ))
            lines.append("-" * 78)
            for row in self.operators:
                label = "  " * row["depth"] + row["label"]
                lines.append("%-44s %11.1f %11d %9d" % (
                    label[:44], row["est_rows"], row["actual_rows"],
                    row["pruned"],
                ))
        if self.metrics:
            lines.append(
                "engine: cpu %.6f s; %.3f MB peak state; "
                "%d pruned; %d spill bytes" % (
                    self.metrics.get("cpu_seconds", 0.0),
                    self.metrics.get("peak_state_mb", 0.0),
                    self.metrics.get("tuples_pruned", 0),
                    self.metrics.get("spill_bytes", 0),
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "QueryProfile(#%d %s %s: %.4fs)" % (
            self.seq, self.label, self.status, self.latency,
        )


class ProfileRing:
    """Bounded, thread-safe retention of the last N query profiles.

    Keyed by service sequence number.  The dispatcher records while
    admin handler threads look up and list, so every access takes the
    ring's lock; recording past capacity evicts the oldest profile and
    bumps :attr:`evicted`.
    """

    def __init__(self, capacity: int = DEFAULT_RETENTION):
        if capacity < 1:
            raise ValueError("profile retention must be >= 1")
        self.capacity = capacity
        self.evicted = 0
        self._profiles: "OrderedDict[int, QueryProfile]" = OrderedDict()
        self._lock = threading.Lock()

    def record(self, profile: QueryProfile) -> None:
        with self._lock:
            self._profiles[profile.seq] = profile
            self._profiles.move_to_end(profile.seq)
            while len(self._profiles) > self.capacity:
                self._profiles.popitem(last=False)
                self.evicted += 1

    def get(self, seq: int) -> Optional[QueryProfile]:
        with self._lock:
            return self._profiles.get(seq)

    def last(self, n: Optional[int] = None) -> List[QueryProfile]:
        """The most recent profiles, oldest first."""
        with self._lock:
            profiles = list(self._profiles.values())
        return profiles if n is None else profiles[-n:]

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)
