"""Per-fingerprint runtime feedback: the recording half of the loop.

Tukwila's cardinality counters exist so the optimizer can be re-grounded
by what actually happened.  :class:`FeedbackStore` closes the recording
side of that loop *across queries*: at query completion the service
walks the executed plan, pairs each logical node's **estimated** rows
with the operator's **actual** output counter, and files the pair under
the node's structural signature (:func:`repro.service.fingerprint
.plan_signature`) — the same node-id-free key the result and AIP caches
use, so a later query built independently from the same subexpression
can look its observed cardinality up.  The consuming half (feeding
records back into :class:`~repro.optimizer.estimator
.CardinalityEstimator` priors) is the ROADMAP's "engine-wide
runtime-feedback optimization" item; this store is its substrate.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import PlanError
from repro.service.fingerprint import plan_signature


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
    Three readers sit on top: :meth:`FeedbackStore.record_rows`,
    :func:`repro.obs.profiles.operator_table` and
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
        signature = None
        if counters is not None:
            actual = counters.tuples_out
            tuples_in = counters.tuples_in
            pruned = counters.tuples_pruned
            try:
                signature = plan_signature(node)
            except PlanError:
                pass
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
            # The structural fingerprint, only where counters exist.
            "signature": signature,
        })
        if not shared:
            for child in node.children:
                visit(child, depth + 1)

    visit(physical.logical_root, 0)
    return rows


class FeedbackRecord:
    """Accumulated observations for one structural fingerprint."""

    __slots__ = (
        "signature", "operator", "observations", "estimated_rows",
        "actual_rows", "input_rows", "pruned_rows",
    )

    def __init__(self, signature: str, operator: str):
        self.signature = signature
        self.operator = operator
        self.observations = 0
        self.estimated_rows = 0.0
        self.actual_rows = 0
        self.input_rows = 0
        self.pruned_rows = 0

    @property
    def mean_actual_rows(self) -> float:
        return self.actual_rows / self.observations if self.observations else 0.0

    @property
    def mean_estimated_rows(self) -> float:
        return (
            self.estimated_rows / self.observations if self.observations else 0.0
        )

    @property
    def selectivity(self) -> Optional[float]:
        """Observed output/input ratio; None for sources (no input)."""
        if self.input_rows == 0:
            return None
        return self.actual_rows / self.input_rows

    @property
    def estimation_error(self) -> Optional[float]:
        """Mean estimated/actual ratio (>1 = overestimate)."""
        if self.actual_rows == 0:
            return None
        return self.estimated_rows / self.actual_rows

    def as_dict(self) -> Dict:
        return {
            "signature": self.signature,
            "operator": self.operator,
            "observations": self.observations,
            "mean_estimated_rows": self.mean_estimated_rows,
            "mean_actual_rows": self.mean_actual_rows,
            "selectivity": self.selectivity,
            "estimation_error": self.estimation_error,
            "pruned_rows": self.pruned_rows,
        }


class FeedbackStore:
    """Observed cardinalities and selectivities keyed by fingerprint."""

    def __init__(self):
        self._records: Dict[str, FeedbackRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def get(self, signature: str) -> Optional[FeedbackRecord]:
        return self._records.get(signature)

    def record(
        self,
        signature: str,
        operator: str,
        estimated_rows: float,
        actual_rows: int,
        input_rows: int = 0,
        pruned_rows: int = 0,
    ) -> FeedbackRecord:
        """Fold one completed execution's numbers into the store."""
        rec = self._records.get(signature)
        if rec is None:
            rec = FeedbackRecord(signature, operator)
            self._records[signature] = rec
        rec.observations += 1
        rec.estimated_rows += estimated_rows
        rec.actual_rows += actual_rows
        rec.input_rows += input_rows
        rec.pruned_rows += pruned_rows
        return rec

    def record_rows(self, rows: List[Dict]) -> int:
        """Record one completed plan from its :func:`plan_rows`;
        returns the number of nodes recorded.

        Rows without a signature — nodes the translator rewrote away
        (no physical operator), operators that never counted a tuple,
        nodes that cannot be fingerprinted, repeat visits of a shared
        subtree — are skipped, not errors: partial feedback from an
        oddly shaped plan is still feedback.
        """
        recorded = 0
        for row in rows:
            if row["signature"] is None:
                continue
            self.record(
                row["signature"], row["operator"],
                estimated_rows=row["est_rows"],
                actual_rows=row["actual_rows"],
                input_rows=row["tuples_in"],
                pruned_rows=row["pruned"],
            )
            recorded += 1
        return recorded

    def record_plan(self, physical, metrics, estimator) -> int:
        """:meth:`record_rows` over a fresh walk of ``physical``."""
        return self.record_rows(plan_rows(physical, metrics, estimator))

    def export(self) -> List[Dict]:
        """JSON-ready records, deterministically ordered by signature."""
        return [
            self._records[sig].as_dict() for sig in sorted(self._records)
        ]
