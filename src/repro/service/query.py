"""The one record of a served query, and the front doors' view of it.

:class:`Query` is created by :meth:`QueryService.submit` as the queue
entry and *is*, once dispatch settles it, the outcome the
:class:`~repro.service.service.ServiceReport` lists, the retained
profile is built from and the public
:class:`~repro.service.result.QueryResult` is a view of — one object
from submit to profile, so nothing is joined back together by sequence
number (DESIGN.md section 6 has the stage-by-field table).

:class:`Request` is what a front door (the socket dispatcher, the
in-process client) hands :meth:`QueryService.run_requests`; it points
at its record instead of copying it, and :func:`proc_row` is the one
``proclist`` row shape both the service queue and the server's live
table render.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.service.result import QueryResult, result_from_outcome

#: A submitted query that dispatch has not settled yet.
QUEUED = "queued"

#: Floor on the retry hint a shed reply carries, in (virtual) seconds.
MIN_RETRY_HINT_S = 0.001


class Query:
    """Everything the service knows about one submitted query."""

    __slots__ = (
        "seq", "label", "tenant", "strategy", "plan", "signature",
        "arrival", "_estimate", "estimates", "miss_counted",
        "status", "reason", "start", "finish", "batch", "result",
        "metrics",
    )

    def __init__(self, seq: int, label: str, plan, signature: str,
                 arrival: float, strategy: str,
                 estimate: Callable[[object], Tuple[float, float]],
                 tenant: Optional[str] = None):
        self.seq = seq
        self.label = label
        #: Fair-share / quota class (None = the anonymous tenant).
        self.tenant = tenant
        self.strategy = strategy
        self.plan = plan
        self.signature = signature
        self.arrival = arrival
        #: ``plan -> (state bytes, cost seconds)``, the optimizer's
        #: estimates; run at most once, by whichever of
        #: :attr:`state_estimate` / :attr:`cost_estimate` is read first.
        self._estimate = estimate
        #: What that call returned, or None while nothing has asked: a
        #: query answered from the result cache never does.  Views that
        #: must not cost a plan themselves (``proclist`` rows on an
        #: admin thread, the retained profile) read this, not the
        #: properties.
        self.estimates: Optional[Tuple[float, float]] = None
        #: Whether this query's first result-cache miss was recorded
        #: (re-probes while queued must not inflate the miss count).
        self.miss_counted = False
        #: ``queued`` until :meth:`settle`; then ok/cached/shed/error.
        self.status = QUEUED
        #: Why a non-ok query ended: ``admission``, ``slo``,
        #: ``quota:concurrent``, ``quota:state`` or an error message.
        self.reason: Optional[str] = None
        self.start: Optional[float] = None
        self.finish: Optional[float] = None
        #: Index of the concurrent batch this query ran in (-1 if none).
        self.batch = -1
        #: The engine's :class:`~repro.exec.engine.QueryResult`, or None
        #: for a query that produced no rows (shed, error).
        self.result = None
        #: Flat engine-counter summary, taken once when settled; the
        #: profile and the public result both read this one.
        self.metrics: Dict = {}

    def settle(self, status: str, start: float, finish: float, result=None,
               batch: int = -1, reason: Optional[str] = None) -> None:
        """The terminal write: how the query ended, when, and with what."""
        self.status = status
        self.start = start
        self.finish = finish
        self.result = result
        self.batch = batch
        self.reason = reason
        if result is not None:
            self.metrics = result.metrics.summary()

    @property
    def state_estimate(self) -> float:
        """Estimated peak intermediate state, in bytes (what admission
        and the state quota charge); estimated on first read."""
        return self._estimated()[0]

    @property
    def cost_estimate(self) -> float:
        """Estimated running time, in virtual seconds (what the SJF
        scheduler and the SLO projection use); estimated on first
        read."""
        return self._estimated()[1]

    def _estimated(self) -> Tuple[float, float]:
        if self.estimates is None:
            self.estimates = self._estimate(self.plan)
        return self.estimates

    @property
    def known_state_estimate(self) -> Optional[float]:
        """:attr:`state_estimate` if dispatch has read it, else None —
        never an estimate of its own."""
        estimates = self.estimates
        return None if estimates is None else estimates[0]

    @property
    def queue_wait(self) -> float:
        return self.start - self.arrival

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def rows(self) -> int:
        return len(self.result) if self.result is not None else 0

    def to_result(self) -> QueryResult:
        """The public transport-independent view of this query; the
        shape both the socket server and the in-process client hand to
        callers."""
        return result_from_outcome(self)

    def __repr__(self) -> str:
        if self.status == QUEUED:
            return "Query(%s queued)" % self.label
        return "Query(%s %s: wait=%.4f latency=%.4f)" % (
            self.label, self.status, self.queue_wait, self.latency,
        )


class Request:
    """One caller's query and, once :meth:`QueryService.run_requests`
    has settled it, its answer: what both front doors (the socket
    dispatcher and the in-process client) hand the service.

    Settled means exactly one of: ``error`` is a message (``result``
    rides along when the engine produced an ``error``-status query),
    or ``result`` is an ok/cached/shed
    :class:`~repro.service.result.QueryResult`.
    """

    __slots__ = (
        "text", "strategy", "label", "tenant", "phase", "query", "result",
        "error", "retry_after_s",
    )

    def __init__(self, text, strategy=None, label=None, tenant=None):
        self.text = text
        self.strategy = strategy
        self.label = label
        self.tenant = tenant
        #: queued -> admitted -> executing (-> streaming, on a socket).
        self.phase = QUEUED
        #: The service's record, from the moment the query is submitted.
        self.query: Optional[Query] = None
        self.result: Optional[QueryResult] = None
        #: A request born with unusable text is settled on arrival.
        self.error: Optional[str] = (
            None if isinstance(text, str) and text.strip()
            else "query frame needs a non-empty 'text' field"
        )
        #: Backoff hint for a shed answer: the virtual seconds the run
        #: that refused the query took — by then capacity has turned
        #: over at least once.
        self.retry_after_s = MIN_RETRY_HINT_S

    def proc_row(self, qid, clock: float, elapsed_wall_s: float) -> Dict:
        """This request's row in a front door's live table."""
        query = self.query
        if query is None:  # not handed to the service yet
            return proc_row(
                qid, self.tenant, self.label or "sql", self.phase, None,
                None, 0.0, elapsed_wall_s,
            )
        return proc_row(
            qid, self.tenant, query.label, self.phase, query.seq,
            query.known_state_estimate, clock - query.arrival,
            elapsed_wall_s,
        )


def proc_row(qid, tenant, label, phase, seq, state_estimate,
             virtual_elapsed_s, elapsed_wall_s=0.0) -> Dict:
    """One ``proclist`` row, whichever table it came from."""
    return {
        "qid": qid,
        "tenant": tenant,
        "label": label,
        "phase": phase,
        "elapsed_wall_s": elapsed_wall_s,
        "virtual_elapsed_s": virtual_elapsed_s,
        "seq": seq,
        "state_estimate_bytes": state_estimate,
        "worker": None,
    }
