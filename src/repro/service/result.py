"""The one public result shape every transport returns.

Before the front door, callers saw three different result shapes:
:class:`~repro.exec.engine.QueryResult` (rows + schema + raw engine
metrics) from ``execute_plan``, a per-query outcome from the service,
and ad-hoc runner dicts from the harness.  The socket client would have
added a fourth.  This module defines the single client-facing
:class:`QueryResult`: rows, column names, terminal status, latency and
queue wait on the service's virtual clock, and a flat engine-metrics
snapshot — the same object whether it came from an in-process call or
across the wire.

Bit-identity across transports is a design invariant, not an accident:
:meth:`QueryResult.to_payload` / :meth:`QueryResult.from_payload`
define the wire representation, every value in it is JSON-exact
(str/int/float/bool/None round-trip bit-identically through ``json``),
and ``from_payload`` restores rows to tuples — so a socket client and
an :class:`~repro.client.InProcessClient` running the same stream hand
back equal objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ExecutionError

Row = Tuple

#: Terminal statuses, declared on the import-light client side
#: (repro.service.service re-exports them).
OK = "ok"
CACHED = "cached"
SHED = "shed"
ERROR = "error"


class QueryResult:
    """What one submitted query came back as, transport-independent."""

    __slots__ = (
        "label", "status", "rows", "columns", "latency", "queue_wait",
        "seq", "tenant", "reason", "metrics",
    )

    def __init__(
        self,
        label: str,
        status: str,
        rows: List[Row],
        columns: Tuple[str, ...],
        latency: float,
        queue_wait: float,
        seq: int = -1,
        tenant: Optional[str] = None,
        reason: Optional[str] = None,
        metrics: Optional[Dict] = None,
    ):
        self.label = label
        self.status = status
        self.rows = rows
        self.columns = columns
        #: Virtual seconds from arrival to finish / shed decision.
        self.latency = latency
        self.queue_wait = queue_wait
        self.seq = seq
        self.tenant = tenant
        #: Why a non-ok query ended: ``admission``, ``slo``,
        #: ``quota:concurrent``, ``quota:state``, or an error message.
        self.reason = reason
        #: Flat engine-counter snapshot (``virtual_seconds``,
        #: ``peak_state_mb``, ``tuples_pruned``, ...); empty for sheds.
        self.metrics = metrics or {}

    # -- predicates --------------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.status in (OK, CACHED)

    @property
    def cached(self) -> bool:
        return self.status == CACHED

    def require(self) -> "QueryResult":
        """Return self, or raise if the query did not produce rows."""
        if not self.ok:
            raise ExecutionError(
                "query %s was %s%s" % (
                    self.label, self.status,
                    " (%s)" % self.reason if self.reason else "",
                )
            )
        return self

    # -- row access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> List[Row]:
        """Rows in a canonical order, for equivalence checks."""
        return sorted(self.rows, key=repr)

    def __repr__(self) -> str:
        return "QueryResult(%s %s: %d rows, latency=%.4fs)" % (
            self.label, self.status, len(self.rows), self.latency,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryResult):
            return NotImplemented
        return self.to_payload() == other.to_payload()

    # -- the wire shape ----------------------------------------------------

    def to_payload(self) -> Dict:
        """JSON-safe dict: the whole result in its wire shape."""
        return self._payload([list(row) for row in self.rows])

    def summary_payload(self) -> Dict:
        """:meth:`to_payload` minus ``rows`` — what a terminal frame
        carries once the rows have been streamed — made without copying
        a row."""
        payload = self._payload(None)
        del payload["rows"]
        return payload

    def _payload(self, rows) -> Dict:
        return {
            "label": self.label,
            "status": self.status,
            "rows": rows,
            "columns": list(self.columns),
            "latency": self.latency,
            "queue_wait": self.queue_wait,
            "seq": self.seq,
            "tenant": self.tenant,
            "reason": self.reason,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "QueryResult":
        return cls(
            label=payload["label"],
            status=payload["status"],
            rows=[tuple(row) for row in payload["rows"]],
            columns=tuple(payload["columns"]),
            latency=payload["latency"],
            queue_wait=payload["queue_wait"],
            seq=payload.get("seq", -1),
            tenant=payload.get("tenant"),
            reason=payload.get("reason"),
            metrics=dict(payload.get("metrics") or {}),
        )


def columns_of(schema) -> Tuple[str, ...]:
    """Column names of an engine schema (tolerates None for sheds)."""
    if schema is None:
        return ()
    return tuple(attr.name for attr in schema.attributes)


def result_from_outcome(outcome) -> QueryResult:
    """Build the public result from a settled service
    :class:`~repro.service.query.Query`.

    The single construction point both transports share: the
    in-process client returns this object directly; the socket server
    serialises it with :meth:`QueryResult.to_payload`.
    """
    engine_result = outcome.result
    if engine_result is None:
        rows: List[Row] = []
        columns: Tuple[str, ...] = ()
    else:
        rows = list(engine_result.rows)
        columns = columns_of(engine_result.schema)
    return QueryResult(
        label=outcome.label,
        status=outcome.status,
        rows=rows,
        columns=columns,
        latency=outcome.latency,
        queue_wait=outcome.queue_wait,
        seq=outcome.seq,
        tenant=outcome.tenant,
        reason=outcome.reason,
        # The record's one summary; each view owns its copy.
        metrics=dict(outcome.metrics),
    )


def results_from_report(report) -> List[QueryResult]:
    """Per-query public results for one :class:`ServiceReport`."""
    return [result_from_outcome(outcome) for outcome in report.outcomes]
