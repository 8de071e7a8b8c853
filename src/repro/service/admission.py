"""Admission control: bound aggregate intermediate-state memory.

The paper's Section VI-D argument — "the memory savings may be
particularly important in a system that executes multiple queries
simultaneously" — only matters if the system actually limits how much
intermediate state concurrent queries may pin.  The controller holds a
byte budget; each query's demand is estimated *before* execution from
the optimizer's cardinality model (the buffered inputs of every
stateful operator), and a query is

* **admitted** while the estimated in-flight total stays within budget,
* **queued** when it would push the total past the budget, and
* **shed** outright when its own estimate exceeds the whole budget —
  it could never run, so keeping it queued would stall the stream.

Estimates drift from reality (short-circuiting, AIP pruning, skew), so
the controller also *reconciles*: after each batch the service reports
the bytes actually observed — the memory governor's resident peak when
one is attached, the metric store's peak otherwise — and an EWMA of
the observed/estimated ratio corrects every later admission decision.
"""

from __future__ import annotations

from typing import Optional

from repro.optimizer.cost import PlanCoster
from repro.plan.logical import GroupBy, LogicalNode

ADMIT = "admit"
QUEUE = "queue"
SHED = "shed"


def estimate_query_state_bytes(root: LogicalNode, coster: PlanCoster) -> float:
    """Estimated peak intermediate state of one query, in bytes.

    Every stateful operator buffers its inputs (symmetric hash joins
    buffer both sides; semijoins buffer probe rows until the source
    completes); a group-by additionally materialises its groups.  This
    ignores short-circuiting and AIP pruning, so it is a conservative
    (admission-safe) overestimate.
    """
    total = 0.0
    for node in root.walk():
        if not node.is_stateful:
            continue
        for child in node.children:
            total += coster.state_bytes(child)
        if isinstance(node, GroupBy):
            total += coster.state_bytes(node)
    return total


class AdmissionController:
    """Tracks estimated in-flight state against a byte budget."""

    #: EWMA weight of each batch's observed/estimated ratio in
    #: :attr:`correction`.
    CORRECTION_ALPHA = 0.3

    def __init__(
        self,
        memory_budget_bytes: Optional[float] = None,
        max_concurrent: int = 4,
    ):
        if max_concurrent < 1:
            raise ValueError("need max_concurrent >= 1")
        self.memory_budget_bytes = memory_budget_bytes
        self.max_concurrent = max_concurrent
        self.in_flight_bytes = 0.0
        self.in_flight_queries = 0
        self.admitted = 0
        #: Queue *decisions*, not distinct queries — one query waiting
        #: through several batch formations counts once per attempt.
        self.queue_events = 0
        self.shed = 0
        #: EWMA of observed/estimated state bytes; scales every budget
        #: comparison.  Starts at 1.0 (trust the estimator) and is fed
        #: by :meth:`observe` after each finished batch.
        self.correction = 1.0
        self.observations = 0

    def effective_estimate(self, estimate_bytes: float) -> float:
        """An estimate scaled by what reconciliation has learned."""
        return estimate_bytes * self.correction

    def observe(self, estimated_bytes: float, actual_bytes: float) -> None:
        """Fold one batch's observed state bytes into the correction.

        ``estimated_bytes`` is the batch's summed admission estimate;
        ``actual_bytes`` the peak the run actually reached (governor
        resident peak when enforcement is on).  Called exactly once per
        executed batch — error paths skip it, so a failed batch never
        poisons the ratio.
        """
        if estimated_bytes <= 0 or actual_bytes < 0:
            return
        ratio = actual_bytes / estimated_bytes
        alpha = self.CORRECTION_ALPHA
        correction = (1.0 - alpha) * self.correction + alpha * ratio
        # Clamp: one aberrant batch must never push the controller into
        # shedding everything or admitting unboundedly.
        self.correction = min(max(correction, 0.05), 20.0)
        self.observations += 1

    def decide(self, estimate_bytes: float) -> str:
        """Classify one query given the current in-flight load."""
        budget = self.memory_budget_bytes
        if (
            budget is not None
            and self.effective_estimate(estimate_bytes) > budget
        ):
            self.shed += 1
            return SHED
        if self.in_flight_queries >= self.max_concurrent:
            self.queue_events += 1
            return QUEUE
        if (
            budget is not None
            and self.in_flight_queries > 0
            and self.effective_estimate(
                self.in_flight_bytes + estimate_bytes
            ) > budget
        ):
            self.queue_events += 1
            return QUEUE
        self.admitted += 1
        return ADMIT

    def acquire(self, estimate_bytes: float) -> None:
        self.in_flight_bytes += estimate_bytes
        self.in_flight_queries += 1

    def release(self, estimate_bytes: float) -> None:
        self.in_flight_bytes = max(0.0, self.in_flight_bytes - estimate_bytes)
        self.in_flight_queries = max(0, self.in_flight_queries - 1)
