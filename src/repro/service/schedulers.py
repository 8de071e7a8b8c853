"""Pluggable batch schedulers for the query service.

A scheduler orders the ready queue each time the service forms a new
concurrent batch.  Ordering is the whole interface: admission control
then packs the prefix that fits the memory budget.

* ``fifo`` — arrival order; fair, predictable queue waits.
* ``sjf`` — shortest-cost-first using the optimizer's cost estimate
  (:class:`~repro.optimizer.cost.PlanCoster` totals, the same virtual
  seconds the engine charges), which minimises mean latency on mixed
  streams at the price of possible starvation of expensive queries.
"""

from __future__ import annotations

from typing import List

FIFO = "fifo"
SJF = "sjf"

#: Scheduler names accepted by :func:`make_scheduler` and the CLI.
SCHEDULERS = (FIFO, SJF)


class Scheduler:
    """Orders pending entries; subclasses override :meth:`order`."""

    name = "scheduler"

    def order(self, pending: List) -> List:
        """Return ``pending`` in dispatch order (a new list).

        Entries are :class:`~repro.service.query.Query` records
        exposing ``arrival``, ``seq`` and ``cost_estimate``.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class FifoScheduler(Scheduler):
    """Dispatch in arrival order (ties broken by submission sequence)."""

    name = FIFO

    def order(self, pending: List) -> List:
        return sorted(pending, key=lambda e: (e.arrival, e.seq))


class ShortestCostFirstScheduler(Scheduler):
    """Dispatch cheapest-estimated-cost first."""

    name = SJF

    def order(self, pending: List) -> List:
        return sorted(pending, key=lambda e: (e.cost_estimate, e.seq))


def make_scheduler(name: str) -> Scheduler:
    if name == FIFO:
        return FifoScheduler()
    if name == SJF:
        return ShortestCostFirstScheduler()
    raise ValueError(
        "unknown scheduler %r; expected one of %s" % (name, SCHEDULERS)
    )
