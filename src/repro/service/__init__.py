"""The multi-query service layer.

The paper motivates AIP with multi-query settings — "a reduction in
both CPU cost and memory can be very useful in improving throughput if
multiple queries are running concurrently" (Section VI-B) — and this
package turns the one-shot engine into that system: a
:class:`~repro.service.service.QueryService` front door accepts a
*stream* of queries (SQL text, workload ids, or plan builders) against
one catalog on the shared virtual clock, with

* **admission control** bounding aggregate intermediate-state memory
  (queries past the budget queue; queries that could never fit shed);
* **pluggable schedulers** (FIFO, shortest-cost-first) choosing which
  queued queries form the next concurrent batch;
* a **result cache** keyed by plan fingerprint.

Sideways information passing stays within one query, as in the paper:
every batch runs on a fresh context, inline or on a worker pool alike.
"""

from repro.service.admission import (
    AdmissionController, estimate_query_state_bytes,
)
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.fingerprint import plan_signature
from repro.service.result import (
    QueryResult, result_from_outcome, results_from_report,
)
from repro.service.result_cache import ResultCache
from repro.service.schedulers import (
    FifoScheduler, Scheduler, ShortestCostFirstScheduler, make_scheduler,
    SCHEDULERS,
)
from repro.service.query import Query
from repro.service.service import (
    CACHED, ERROR, OK, SHED_STATUS, QueryService, ServiceReport,
)
from repro.service.workload import WorkloadItem, parse_workload

__all__ = [
    "AdmissionController", "estimate_query_state_bytes",
    "ResultCache",
    "ServiceConfig", "TenantQuota",
    "QueryResult", "result_from_outcome", "results_from_report",
    "plan_signature",
    "Scheduler", "FifoScheduler", "ShortestCostFirstScheduler",
    "make_scheduler", "SCHEDULERS",
    "QueryService", "Query", "ServiceReport",
    "OK", "CACHED", "SHED_STATUS", "ERROR",
    "WorkloadItem", "parse_workload",
]
