"""The query service: a stream of queries on one engine and clock.

:class:`QueryService` is the front door the ROADMAP's "system serving
heavy traffic" needs on top of the one-shot engine.  Queries — SQL
text, Table I workload ids, logical plans, or plan-builder callables —
are submitted with virtual arrival times; the service forms concurrent
batches with a pluggable scheduler, packs each batch under the
admission controller's intermediate-state budget, and hands it to an
execution backend (:mod:`repro.service.executor`): inline, every batch
shares one clock and one aggregate metric store; on a worker pool,
each query gets a process.  One cache persists across queries: a
result cache keyed by plan fingerprint.

One query lifecycle, one owner per stage: plan (:meth:`QueryService
.submit`) -> admit/schedule (``_dispatch``) -> execute (``_run_batch``
-> backend) -> finish (``_finish_batch``).

The service model is *batch-sequential*: one engine machine runs one
concurrent batch at a time; queries arriving mid-batch wait in the
queue and their wait shows up in the per-query report.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.common.errors import ExecutionError
from repro.data.catalog import Catalog
from repro.distributed.coordinator import (
    apply_broadcast_fanouts, mark_remote_scans,
)
from repro.exec.costs import CostModel
from repro.exec.engine import QueryResult
from repro.exec.metrics import Metrics, seconds_to_ticks
from repro.harness.strategies import make_strategy, uses_magic_plan
from repro.obs.eventlog import open_event_log
from repro.obs.profiles import ProfileRing, QueryProfile, operator_table
from repro.obs.registry import RATIO_BUCKETS, MetricsRegistry, percentile
from repro.optimizer.cost import PlanCoster
from repro.plan.logical import LogicalNode
from repro.service.admission import (
    ADMIT, SHED, AdmissionController, estimate_query_state_bytes,
)
from repro.service.config import TenantQuota, coerce_config
from repro.service.executor import BatchRun, InlineBackend, PoolBackend
from repro.service.fingerprint import plan_signature
from repro.service.query import (
    MIN_RETRY_HINT_S, QUEUED, Query, Request, proc_row,
)
# The statuses a submitted query can end in.  ERROR is the pool
# backend's: the query's plan could not be shipped, or the worker
# carrying it died or raised.
from repro.service.result import (
    CACHED, ERROR, OK, SHED as SHED_STATUS, results_from_report,
)
from repro.service.result_cache import ResultCache
from repro.service.schedulers import Scheduler, make_scheduler
from repro.service.workload import WorkloadItem
from repro.workloads.registry import QUERIES, get_query

QuerySpec = Union[str, LogicalNode, Callable[[Catalog], LogicalNode]]

#: Per-batch engine counters the service accumulates for one run's
#: report (everything :meth:`Metrics.summary` reports that is additive
#: across batches rather than a clock or a peak).
_ENGINE_TOTAL_KEYS = (
    "tuples_pruned", "aip_sets_created", "aip_sets_declined",
    "aip_bytes_shipped", "network_bytes", "spill_bytes", "spill_events",
    "pages_pushed", "rows_selected",
)


def _fair_interleave(ordered: List[Query]) -> List[Query]:
    """Round-robin the scheduler's ordering across tenants.

    Within one tenant the scheduler's relative order is preserved;
    across tenants, admission slots alternate so one tenant's burst
    cannot starve another's single query out of a packed batch.
    Tenants rotate in first-appearance order, so the result is
    deterministic for a given input ordering.
    """
    by_tenant: Dict[Optional[str], List[Query]] = {}
    for entry in ordered:
        by_tenant.setdefault(entry.tenant, []).append(entry)
    if len(by_tenant) <= 1:
        return ordered
    out: List[Query] = []
    queues = list(by_tenant.values())
    while queues:
        still_live = []
        for queue in queues:
            out.append(queue.pop(0))
            if queue:
                still_live.append(queue)
        queues = still_live
    return out


def _run_delta(before: Optional[Dict], after: Optional[Dict], gauges):
    """Run-scope view of a component's lifetime stats: cumulative
    counters as deltas, the point-in-time ``gauges`` as-is."""
    if after is None:
        return None
    return {
        key: value if key in gauges else value - before[key]
        for key, value in after.items()
    }


class ServiceReport:
    """Aggregate throughput report over one service run.

    ``elapsed``, ``peak`` and the cache stats all describe *this* run's
    window; a reused service keeps its cumulative clock, peak and cache
    counters separately (``admission`` remains the service-lifetime
    controller object).
    """

    def __init__(self, service: "QueryService", outcomes: List[Query],
                 elapsed: float, peak: int,
                 result_cache_stats: Optional[Dict],
                 engine: Optional[Dict] = None,
                 storage: Optional[Dict] = None):
        #: The run's settled :class:`~repro.service.query.Query`
        #: records, in submission order.
        self.outcomes = outcomes
        self.total_virtual_seconds = elapsed
        self.peak_state_bytes = peak
        #: None when the result cache is disabled.
        self.result_cache_stats = result_cache_stats
        self.admission = service.admission
        #: Engine counters summed across this run's batches (pruning,
        #: AIP set construction/shipping, network and spill traffic).
        self.engine = dict(engine or {})
        #: Governor observations for this run, or None un-governed.
        self.storage = storage

    @property
    def results(self) -> List:
        """Per-query public :class:`~repro.service.result.QueryResult`
        views — the same objects a client (socket or in-process) would
        have been handed for this stream."""
        return results_from_report(self)

    @property
    def completed(self) -> List[Query]:
        return [o for o in self.outcomes if o.status in (OK, CACHED)]

    @property
    def shed(self) -> List[Query]:
        return [o for o in self.outcomes if o.status == SHED_STATUS]

    @property
    def failed(self) -> List[Query]:
        """Pool backend only: queries lost to worker faults."""
        return [o for o in self.outcomes if o.status == ERROR]

    @property
    def queries_per_second(self) -> float:
        if self.total_virtual_seconds <= 0:
            return 0.0
        return len(self.completed) / self.total_virtual_seconds

    def mean_latency(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return sum(o.latency for o in done) / len(done)

    def mean_queue_wait(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return sum(o.queue_wait for o in done) / len(done)

    def latency_percentile(self, q: float) -> float:
        """Exact interpolated latency percentile over completed queries
        (deterministic virtual latencies, so baselineable in CI)."""
        return percentile([o.latency for o in self.completed], q)

    def _hit_rate(self, stats) -> float:
        if not stats:
            return 0.0
        probes = stats["hits"] + stats["misses"]
        return stats["hits"] / probes if probes else 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "queries": len(self.outcomes),
            "completed": len(self.completed),
            "shed": len(self.shed),
            "failed": len(self.failed),
            "total_virtual_seconds": self.total_virtual_seconds,
            "queries_per_second": self.queries_per_second,
            "mean_latency": self.mean_latency(),
            "mean_queue_wait": self.mean_queue_wait(),
            "latency_p50": self.latency_percentile(50),
            "latency_p95": self.latency_percentile(95),
            "latency_p99": self.latency_percentile(99),
            "peak_state_mb": self.peak_state_bytes / 1e6,
            "result_cache_hit_rate": self._hit_rate(self.result_cache_stats),
            "tuples_pruned": self.engine.get("tuples_pruned", 0),
            "aip_sets_created": self.engine.get("aip_sets_created", 0),
            "aip_bytes_shipped": self.engine.get("aip_bytes_shipped", 0),
            "network_bytes": self.engine.get("network_bytes", 0),
            "spill_bytes": self.engine.get("spill_bytes", 0),
            "spill_events": self.engine.get("spill_events", 0),
            "over_budget_events": (
                self.storage["over_budget_events"]
                if self.storage is not None else 0
            ),
        }

    def render(self) -> str:
        """Human-readable per-query table plus the aggregate summary."""
        lines = ["%-4s %-10s %-7s %8s %10s %10s %10s" % (
            "#", "query", "status", "rows", "wait (vs)", "latency",
            "finish",
        )]
        for o in self.outcomes:
            lines.append("%-4d %-10s %-7s %8d %10.4f %10.4f %10.4f" % (
                o.seq, o.label[:10], o.status, o.rows, o.queue_wait,
                o.latency, o.finish,
            ))
        s = self.summary()
        lines.append(
            "-- %d queries (%d completed, %d shed%s) in %.4f virtual s "
            "= %.2f q/s" % (
                s["queries"], s["completed"], s["shed"],
                ", %d failed" % s["failed"] if s["failed"] else "",
                s["total_virtual_seconds"], s["queries_per_second"],
            )
        )
        lines.append(
            "-- mean latency %.4f s; mean queue wait %.4f s; "
            "peak aggregate state %.3f MB" % (
                s["mean_latency"], s["mean_queue_wait"], s["peak_state_mb"],
            )
        )
        lines.append(
            "-- latency p50 %.4f s; p95 %.4f s; p99 %.4f s" % (
                s["latency_p50"], s["latency_p95"], s["latency_p99"],
            )
        )
        lines.append(
            "-- engine: %d tuples pruned; %d AIP sets built "
            "(%d declined); %d AIP bytes shipped; %d network bytes" % (
                s["tuples_pruned"], s["aip_sets_created"],
                self.engine.get("aip_sets_declined", 0),
                s["aip_bytes_shipped"], s["network_bytes"],
            )
        )
        if self.storage is not None:
            lines.append(
                "-- governor: peak resident %d bytes (budget %s); "
                "%d spill bytes in %d spill events; %d over-budget; "
                "%d evictions, %d reloads" % (
                    self.storage["peak_resident_bytes"],
                    self.storage["budget"],
                    s["spill_bytes"], s["spill_events"],
                    s["over_budget_events"],
                    self.storage["evictions"], self.storage["reloads"],
                )
            )
        elif s["spill_bytes"] or s["spill_events"]:
            lines.append(
                "-- spill: %d bytes in %d events" % (
                    s["spill_bytes"], s["spill_events"],
                )
            )
        if self.result_cache_stats is not None:
            lines.append(
                "-- result cache: %.0f%% hit rate (%d/%d), "
                "<= %.4f vs avoided" % (
                    100 * self._hit_rate(self.result_cache_stats),
                    self.result_cache_stats["hits"],
                    self.result_cache_stats["hits"]
                    + self.result_cache_stats["misses"],
                    self.result_cache_stats["seconds_saved"],
                )
            )
        return "\n".join(lines)


class QueryService:
    """Runs a stream of queries against one catalog on one clock."""

    def __init__(self, catalog: Catalog, config=None, **kwargs):
        """``config`` is a :class:`~repro.service.config.ServiceConfig`;
        ``QueryService(catalog, **fields)`` is sugar for
        ``QueryService(catalog, ServiceConfig(**fields))``.  Passing
        both is a ``TypeError``."""
        config = coerce_config(config, kwargs)
        #: The resolved configuration; every knob below reads from it.
        self.config = config
        strategy = config.strategy
        scheduler = config.scheduler
        memory_budget = config.memory_budget
        tracer = config.tracer
        self.catalog = catalog
        self.default_strategy = strategy
        #: Latency objective in virtual seconds: at dispatch, a query
        #: whose projected latency (wait so far + the forming batch's
        #: cost spread over the pool) exceeds it is shed immediately —
        #: serving a doomed query late helps nobody.
        self.slo_seconds = config.slo_seconds
        #: Hard per-tenant caps (concurrent queries, estimated state
        #: bytes) enforced during dispatch; over-quota queries are shed
        #: with a ``quota:*`` reason while other tenants proceed.
        self.quotas: Dict[Optional[str], TenantQuota] = dict(
            config.quotas or {}
        )
        #: Enforced engine budget: a service-lifetime
        #: :class:`~repro.storage.governor.MemoryGovernor` every batch
        #: context shares, so scans stream buffer-pool pages and
        #: stateful operators spill under pressure.  Distinct from
        #: ``memory_budget_bytes``, the admission controller's
        #: *estimate* budget: admission decides who runs, the governor
        #: bounds what running queries actually hold.  Call
        #: :meth:`close` (or use the service as a context manager) to
        #: remove the spill directory.
        self.governor = None
        if memory_budget is not None:
            from repro.storage.governor import MemoryGovernor
            self.governor = MemoryGovernor(memory_budget)
        #: Structured trace collector shared by every batch context
        #: (and the governor), or None for untraced serving.
        self.tracer = tracer
        if self.governor is not None:
            self.governor.tracer = tracer
        #: Service-lifetime metrics registry: latency distributions,
        #: cache hit counters, AIP selectivity, spill traffic.
        self.registry = MetricsRegistry()
        #: Retained profiles of the last-N finished queries (the
        #: ``profile`` admin frame's backing store).
        self.profiles = ProfileRing()
        #: Latency threshold (ms) for slow-query entries; None = off.
        self.slow_query_ms = config.slow_query_ms
        #: Structured JSONL lifecycle log, or None (disabled — the
        #: hook everywhere is one ``is None`` check, like the tracer).
        self.eventlog = open_event_log(config.event_log)
        #: Service-wide table placement: when set, every submitted plan
        #: is marked against it (whole-site and partitioned tables
        #: alike), overriding workload-built-in placements, and the
        #: broadcast/co-partitioning join analysis is applied.  The
        #: optional network model supplies per-site links for arrival
        #: pacing and per-partition AIP shipping accounting.
        self.placement = config.placement
        from repro.distributed.network import NetworkModel
        self.network = config.network or NetworkModel()
        self.scheduler = (
            scheduler if isinstance(scheduler, Scheduler)
            else make_scheduler(scheduler)
        )
        self.admission = AdmissionController(
            config.memory_budget_bytes, config.max_concurrent
        )
        self.result_cache = ResultCache() if config.result_cache else None
        #: What every batch's engine is told, whichever backend runs it.
        engine_options = {"network": self.network}
        #: Where admitted batches execute, chosen once: worker
        #: processes when ``parallel``/``pool`` ask for them (real
        #: wall-clock concurrency), else this process.  Scheduling
        #: policy never looks at which one it is beyond ``slots``.
        if config.parallel or config.pool is not None:
            self._backend = PoolBackend(
                catalog, engine_options, self.registry, tracer,
                config.parallel, config.pool, config.catalog_spec,
            )
        else:
            self._backend = InlineBackend(catalog, dict(
                engine_options, governor=self.governor, tracer=tracer,
            ))
        #: Engine cost constants behind submit-time estimates and the
        #: clock charge for a result-cache hit.
        self.cost_model = CostModel()
        #: The service's virtual clock, advanced batch by batch.
        self.clock = 0.0
        #: Highest aggregate intermediate state any batch reached.
        self.peak_state_bytes = 0
        self._run_peak = 0
        self.batches_run = 0
        #: Requests :meth:`run_requests` has put through a run.
        self.served_queries = 0
        self._pending: List[Query] = []
        self._seq = 0
        self._run_engine: Dict[str, int] = dict.fromkeys(
            _ENGINE_TOTAL_KEYS, 0
        )

    # -- submission --------------------------------------------------------

    def submit(
        self,
        query: QuerySpec,
        arrival: float = 0.0,
        strategy: Optional[str] = None,
        label: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> int:
        """Enqueue one query; returns its sequence number.

        ``query`` may be SQL text, a Table I workload id, a logical
        plan, or a builder callable ``fn(catalog) -> LogicalNode``.
        ``arrival`` is relative to the service's *current* clock, so a
        reused service replays a stream's spacing rather than dating
        arrivals into its past.  ``tenant`` names the query's
        fair-share class: dispatch interleaves admission across
        tenants so no tenant's burst monopolises a batch.
        """
        return self._enqueue(query, arrival, strategy, label, tenant).seq

    def _enqueue(self, query: QuerySpec, arrival: float = 0.0,
                 strategy: Optional[str] = None, label: Optional[str] = None,
                 tenant: Optional[str] = None) -> Query:
        """:meth:`submit`, handing back the record itself — the one
        object dispatch settles and every later view is read from."""
        strategy = strategy or self.default_strategy
        # Fail fast on a bad strategy name: raising later, mid-batch,
        # would leak acquired admission slots and wedge the service.
        make_strategy(strategy)
        plan, label = self._build_plan(query, strategy, label)
        if self.placement is not None:
            mark_remote_scans(plan, self.placement)
            apply_broadcast_fanouts(plan, self.catalog)
        self._seq += 1
        record = Query(
            self._seq, label, plan, plan_signature(plan),
            self.clock + arrival, strategy, self._estimate, tenant=tenant,
        )
        self._pending.append(record)
        return record

    def _estimate(self, plan: LogicalNode):
        """The optimizer's ``(state bytes, cost seconds)`` for one plan.
        A record calls this the first time dispatch reads either number
        — quota, SLO projection, admission, the SJF scheduler — so a
        query answered from the result cache is never costed."""
        # One coster per plan: its estimate cache is keyed by node ids
        # that every plan mints afresh, so a longer-lived one never
        # hits across queries and only grows.
        coster = PlanCoster(self.catalog, self.cost_model)
        return (
            estimate_query_state_bytes(plan, coster),
            coster.total_cost(plan),
        )

    def submit_item(self, item: WorkloadItem) -> int:
        query = item.text
        return self.submit(
            query, arrival=item.arrival, strategy=item.strategy,
            label=item.label, tenant=getattr(item, "tenant", None),
        )

    def _build_plan(
        self, query: QuerySpec, strategy_name: str, label: Optional[str]
    ):
        if isinstance(query, LogicalNode):
            return query, label or "plan"
        if callable(query):
            return query(self.catalog), label or getattr(
                query, "__name__", "builder"
            )
        if query in QUERIES:
            workload = get_query(query)
            plan = workload.build(self.catalog, uses_magic_plan(strategy_name))
            if workload.is_distributed:
                # Same placement the runner builds for `repro run`.
                from repro.distributed.site import Placement, Site
                mark_remote_scans(plan, Placement(
                    [Site("remote-1", workload.remote_tables)]
                ))
            return plan, label or query
        if uses_magic_plan(strategy_name):
            raise ValueError("SQL text has no magic-sets variant")
        from repro.sql import sql_to_plan
        return sql_to_plan(self.catalog, query), label or "sql"

    # -- execution ---------------------------------------------------------

    def run_workload(self, items: Sequence[WorkloadItem]) -> ServiceReport:
        """Submit a parsed stream and drain it."""
        for item in items:
            self.submit_item(item)
        return self.run()

    def _lifetime_stats(self):
        """Result-cache and governor stats so far (None for a
        component this service runs without)."""
        results, governor = self.result_cache, self.governor
        return (
            results.stats() if results is not None else None,
            governor.snapshot() if governor is not None else None,
        )

    def run(self) -> ServiceReport:
        """Drain the queue, batch by batch, and report on this run."""
        # The queue is in submission order, and dispatch settles these
        # very records: the run's outcomes are known before it starts.
        queries = list(self._pending)
        started = self.clock
        self._run_peak = 0
        self._run_engine = dict.fromkeys(_ENGINE_TOTAL_KEYS, 0)
        result_before, storage_before = self._lifetime_stats()
        while self._pending:
            ready = [p for p in self._pending if p.arrival <= self.clock]
            if not ready:
                self.clock = min(p.arrival for p in self._pending)
                continue
            self._dispatch(self.scheduler.order(ready))
        result, storage = self._lifetime_stats()
        return ServiceReport(
            self, queries,
            elapsed=self.clock - started, peak=self._run_peak,
            result_cache_stats=_run_delta(
                result_before, result, ("entries", "bytes")
            ),
            engine=dict(self._run_engine),
            storage=_run_delta(
                storage_before, storage, ("budget", "peak_resident_bytes")
            ),
        )

    def _drain(self, queries: Sequence[Query]) -> ServiceReport:
        """:meth:`run` on behalf of the caller that enqueued
        ``queries``.  When an engine fault ends the run early that
        caller is told its queries failed, so the ones still queued
        leave with it: left behind, they would run on the next
        caller's clock for an answer nobody reads."""
        try:
            return self.run()
        except Exception:
            withdrawn = set(queries)
            self._pending = [
                p for p in self._pending if p not in withdrawn
            ]
            raise

    def run_requests(self, requests: Sequence[Request]) -> None:
        """Submit every unsettled request, drain the queue once and
        settle each request from its own record — the step the socket
        dispatcher and the in-process client share."""
        live: List[Request] = []
        for request in requests:
            if request.error is not None:
                continue
            try:
                request.query = self._enqueue(
                    request.text, strategy=request.strategy,
                    label=request.label, tenant=request.tenant,
                )
            except Exception as exc:  # bad SQL/strategy: fail one query
                request.error = str(exc)
                continue
            request.phase = "admitted"
            live.append(request)
        if not live:
            return
        for request in live:
            request.phase = "executing"
        try:
            report = self._drain([request.query for request in live])
        except Exception as exc:  # engine fault: fail the whole group
            for request in live:
                request.error = "service batch failed: %s" % exc
            return
        self.served_queries += len(live)
        retry_after_s = max(report.total_virtual_seconds, MIN_RETRY_HINT_S)
        for request in live:
            query = request.query
            request.result = query.to_result()
            request.retry_after_s = retry_after_s
            if query.status == ERROR:
                request.error = query.reason or "query failed"

    def _dispatch(self, ordered: List[Query]) -> None:
        """Resolve cache hits and sheds, pack one batch, and run it."""
        ordered = _fair_interleave(ordered)
        self._trace(
            "sched.pick", ready=len(ordered), pending=len(self._pending),
            scheduler=self.scheduler.describe(),
        )
        self.registry.gauge("admission.queue_depth").set(len(self._pending))
        batch: List[Query] = []
        #: Estimated cost already packed, for SLO latency projection.
        packed_cost = 0.0
        #: Per-tenant packed load this round, for hard-quota checks
        #: (batch-sequential service: nothing else is in flight).
        tenant_packed: Dict[Optional[str], int] = {}
        tenant_bytes: Dict[Optional[str], float] = {}
        #: Signatures of the queries already in the forming batch.
        batch_signatures: set = set()
        consumed: set = set()
        for entry in ordered:
            if self.result_cache is not None:
                if entry.signature in batch_signatures:
                    # A twin of this query is already in the forming
                    # batch and will leave its result cached: hold
                    # this one back one batch rather than recompute it
                    # alongside.  Without the result cache twins leave
                    # nothing behind, so they pack concurrently.
                    continue
                cached = self.result_cache.lookup(
                    entry.signature, count_miss=not entry.miss_counted
                )
                if cached is not None:
                    consumed.add(entry.seq)
                    # Serve a copy — cache rows are shared across hits —
                    # and charge the lookup to the service clock so an
                    # all-cached run still has finite throughput.
                    result = QueryResult(
                        list(cached.rows), cached.schema, Metrics()
                    )
                    self._trace(
                        "cache.result.hit", "cache",
                        query=entry.label, rows=len(result),
                    )
                    self.registry.counter("cache.result.hits").inc()
                    start = self.clock
                    self.clock += self.cost_model.manager_invocation
                    entry.settle(CACHED, start, self.clock, result)
                    self._observe_latency(entry)
                    self._finish_query(entry)
                    continue
                if not entry.miss_counted:
                    self._trace(
                        "cache.result.miss", "cache", query=entry.label,
                    )
                    self.registry.counter("cache.result.misses").inc()
                entry.miss_counted = True
            quota_reason = self._quota_violation(
                entry, tenant_packed, tenant_bytes
            )
            if quota_reason is not None:
                # A hard cap, not fair interleaving: the over-quota
                # tenant's query is shed outright (the front door turns
                # this into a `shed` frame with a retry hint) while
                # other tenants in this very round keep packing.
                self._trace(
                    "admission.quota_shed", query=entry.label,
                    tenant=entry.tenant, reason=quota_reason,
                )
                consumed.add(entry.seq)
                self._shed(entry, quota_reason, "quota.shed")
                continue
            if self.slo_seconds is not None:
                # Project this query's latency were it packed now: the
                # wait it has already accrued plus the forming batch's
                # estimated cost spread across the engine slots.  A
                # query that cannot meet its objective is shed *now* —
                # finishing it late would only steal capacity from
                # queries that can still make theirs.
                projected = (self.clock - entry.arrival) + (
                    packed_cost + entry.cost_estimate
                ) / self._backend.slots
                if projected > self.slo_seconds:
                    self._trace(
                        "admission.slo_shed", query=entry.label,
                        projected_latency=projected,
                        slo_seconds=self.slo_seconds,
                    )
                    consumed.add(entry.seq)
                    self._shed(entry, "slo", "slo.shed")
                    continue
            decision = self.admission.decide(entry.state_estimate)
            self._trace(
                "admission.%s" % decision, query=entry.label,
                state_estimate=entry.state_estimate,
            )
            if decision == SHED:
                consumed.add(entry.seq)
                self._shed(entry, "admission", "admission.shed")
                continue
            if decision != ADMIT:
                # Queued: stop packing so dispatch order is respected;
                # the rest of the queue waits for the next batch.
                self.registry.counter("admission.queued").inc()
                break
            self.registry.counter("admission.admitted").inc()
            self._emit_event(
                "admit", seq=entry.seq, label=entry.label,
                tenant=entry.tenant, state_estimate=entry.state_estimate,
            )
            self.admission.acquire(entry.state_estimate)
            consumed.add(entry.seq)
            batch.append(entry)
            packed_cost += entry.cost_estimate
            tenant_packed[entry.tenant] = (
                tenant_packed.get(entry.tenant, 0) + 1
            )
            tenant_bytes[entry.tenant] = (
                tenant_bytes.get(entry.tenant, 0.0) + entry.state_estimate
            )
            batch_signatures.add(entry.signature)
        if consumed:
            # One filter pass instead of per-entry list.remove scans.
            self._pending = [
                p for p in self._pending if p.seq not in consumed
            ]
        if batch:
            self._run_batch(batch)

    def _quota_violation(
        self,
        entry: Query,
        tenant_packed: Dict[Optional[str], int],
        tenant_bytes: Dict[Optional[str], float],
    ) -> Optional[str]:
        """The ``quota:*`` reason this entry must be shed for, or None.

        Checked against the tenant's load already packed this dispatch
        round (the service is batch-sequential, so the packing round
        *is* the concurrent set).  Result-cache hits never get here —
        serving a cached copy consumes no engine capacity.
        """
        quota = self.quotas.get(entry.tenant)
        if quota is None:
            return None
        if (
            quota.max_concurrent is not None
            and tenant_packed.get(entry.tenant, 0) >= quota.max_concurrent
        ):
            return "quota:concurrent"
        if (
            quota.max_state_bytes is not None
            and tenant_bytes.get(entry.tenant, 0.0) + entry.state_estimate
            > quota.max_state_bytes
        ):
            return "quota:state"
        return None

    # -- telemetry plumbing ------------------------------------------------

    @staticmethod
    def _tenant_label(tenant: Optional[str]) -> str:
        """Label value for per-tenant metric series (queries submitted
        with no tenant share the ``anonymous`` series)."""
        return tenant if tenant is not None else "anonymous"

    def _emit_event(self, event: str, **fields) -> None:
        if self.eventlog is not None:
            self.eventlog.emit(event, clock=self.clock, **fields)

    def _trace(self, name: str, category: str = "service",
               at: Optional[float] = None, **args) -> None:
        """One instant on the service timeline, at clock ``at`` (now
        when omitted) — the tracer's twin of :meth:`_emit_event`."""
        if self.tracer is not None:
            self.tracer.instant(
                name, category,
                seconds_to_ticks(self.clock if at is None else at), args,
            )

    def _shed(self, entry: Query, reason: str, counter_name: str) -> None:
        """One shed decision: labeled counter, event-log entry, the
        record's terminal write, and its retained profile."""
        self.registry.counter(counter_name).labels(
            tenant=self._tenant_label(entry.tenant)
        ).inc()
        self._emit_event(
            "shed", seq=entry.seq, label=entry.label,
            tenant=entry.tenant, reason=reason,
        )
        entry.settle(SHED_STATUS, self.clock, self.clock, reason=reason)
        self._finish_query(entry)

    def _observe_latency(self, query: Query) -> None:
        """Fold one finished query into the latency distributions:
        the per-tenant labeled series feeds the unlabeled aggregate
        via the registry's roll-up."""
        self.registry.histogram("query.latency_s").labels(
            tenant=self._tenant_label(query.tenant)
        ).observe(query.latency)

    def _finish_query(self, query: Query, operators=None) -> None:
        """Retain one settled query's profile and, past the slow-query
        threshold, log the profile with its EXPLAIN-ANALYZE rendering."""
        profile = QueryProfile.from_query(query, operators)
        self.profiles.record(profile)
        if (
            self.slow_query_ms is not None
            and query.status in (OK, CACHED)
            and profile.latency * 1000.0 >= self.slow_query_ms
        ):
            self.registry.counter("queries.slow").labels(
                tenant=self._tenant_label(query.tenant)
            ).inc()
            self._emit_event(
                "slow_query", seq=query.seq, label=query.label,
                tenant=query.tenant,
                latency_ms=profile.latency * 1000.0,
                threshold_ms=self.slow_query_ms,
                profile=profile.as_dict(), explain=profile.render(),
            )

    def _run_batch(self, batch: List[Query]) -> None:
        """Execute one admitted batch on the backend, then finish it.

        Everything between acquisition and the release sits inside
        the try: an acquired entry whose batch dies during *setup*
        (bad network link, hook registration, pool start) must release
        its reserved bytes exactly like one that dies mid-execution, or
        the controller leaks budget and later queries queue forever.
        The governor epoch gives a failed batch the same guarantee for
        *enforced* bytes: dead operators' leases, spill handlers and
        table pages all roll back.  Inline engine errors propagate
        out of :meth:`run`; a pool worker's become ``error`` queries.
        """
        epoch = (
            self.governor.begin_epoch()
            if self.governor is not None else None
        )
        tracer = self.tracer
        try:
            if tracer is not None:
                # Each batch's engine clock restarts at zero; offset its
                # events onto the service timeline.
                tracer.offset = seconds_to_ticks(self.clock)
            run = self._backend.execute(batch)
        except BaseException:
            if epoch is not None:
                self.governor.abort_epoch(epoch)
            raise
        finally:
            if tracer is not None:
                tracer.offset = 0
            for entry in batch:
                self.admission.release(entry.state_estimate)
        self._finish_batch(batch, run)

    def _finish_batch(self, batch: List[Query], run: BatchRun) -> None:
        """Account for one executed batch and settle its queries — the
        same steps, in the same order, whichever backend produced
        ``run``."""
        # Reconcile what admission believed against what the batch
        # actually held.  Only queries that ran count — a failed one
        # reported nothing trustworthy (and a batch that raised never
        # gets here).
        self.admission.observe(
            sum(
                entry.state_estimate
                for entry, ran in zip(batch, run.queries)
                if ran.error is None
            ),
            run.observed_bytes,
        )
        self.peak_state_bytes = max(self.peak_state_bytes, run.peak_bytes)
        self._run_peak = max(self._run_peak, run.peak_bytes)
        batch_index = self.batches_run
        self.batches_run += 1
        start = self.clock
        self.clock += run.seconds

        self._fold_metrics(run)
        spill_events = sum(s["spill_events"] for s in run.summaries)
        if spill_events:
            self._emit_event(
                "spill", batch=batch_index,
                spill_bytes=sum(s["spill_bytes"] for s in run.summaries),
                spill_events=spill_events,
            )
        tracer = self.tracer
        if tracer is not None:
            # Events a worker collected on its own zero-based clock
            # land where the batch sits on the service timeline.
            tracer.replay(run.trace_events, seconds_to_ticks(start))
            tracer.complete(
                "service.batch", "service", seconds_to_ticks(start),
                seconds_to_ticks(run.seconds),
                {"batch": batch_index, "queries": len(batch)},
            )
        self._emit_event(
            "batch_complete", batch=batch_index, queries=len(batch),
            virtual_seconds=run.seconds,
        )

        for entry, ran in zip(batch, run.queries):
            entry.settle(
                OK if ran.error is None else ERROR, start,
                start + ran.finish, ran.result, batch_index, ran.error,
            )
            if ran.error is None:
                if self.result_cache is not None:
                    self.result_cache.store(
                        entry.signature, ran.result.rows,
                        ran.result.schema, ran.finish,
                    )
                self.registry.counter("queries.completed").inc()
                self._observe_latency(entry)
                self.registry.histogram("query.queue_wait_s").observe(
                    entry.queue_wait
                )
            else:
                self.registry.counter("queries.failed").inc()
                self._trace(
                    "service.query_error", at=start,
                    query=entry.label, error=ran.error,
                )
                self._emit_event(
                    "crash", seq=entry.seq, label=entry.label,
                    tenant=entry.tenant, error=ran.error,
                )
            self._finish_query(entry, operator_table(ran.operators))

    def _fold_metrics(self, run: BatchRun) -> None:
        """Accumulate one finished batch's engine counters into the
        run totals and the service-lifetime registry."""
        registry = self.registry
        for fill in run.published_fills:
            registry.counter("aip.sets_published").inc()
            registry.histogram(
                "aip.bloom_fill_fraction", RATIO_BUCKETS
            ).observe(fill)
        for summary in run.summaries:
            for key in _ENGINE_TOTAL_KEYS:
                self._run_engine[key] += summary[key]
                registry.counter("engine.%s" % key).inc(summary[key])
        registry.gauge("engine.peak_state_bytes").set(run.peak_bytes)
        if self.governor is not None:
            registry.gauge("governor.resident_bytes").set(
                self.governor.resident_bytes
            )
            registry.gauge("governor.peak_resident_bytes").set(
                self.governor.peak_resident_bytes
            )
        if run.scanned_rows:
            pruned = sum(s["tuples_pruned"] for s in run.summaries)
            registry.histogram(
                "aip.pruned_row_ratio", RATIO_BUCKETS
            ).observe(min(1.0, pruned / run.scanned_rows))

    def stats(self) -> Dict:
        """The ``service`` (and, when tracing, ``trace``) sections of
        a stats payload — shared by the socket server's ``stats``
        frame and :meth:`repro.client.InProcessClient.stats`."""
        payload = {
            "service": {
                "clock": self.clock,
                "batches_run": self.batches_run,
                "pending": len(self._pending),
                "peak_state_bytes": self.peak_state_bytes,
                "profiles_retained": len(self.profiles),
                "profiles_evicted": self.profiles.evicted,
            },
        }
        if self.tracer is not None:
            payload["trace"] = {
                "events": len(self.tracer),
                "dropped": self.tracer.dropped,
                "max_events": self.tracer.max_events,
            }
        return payload

    def proclist(self) -> List[Dict]:
        """The queue as ``proclist`` rows: queries submitted and not
        yet run."""
        return [
            proc_row(
                pending.seq, pending.tenant, pending.label, QUEUED,
                pending.seq, pending.known_state_estimate,
                max(0.0, self.clock - pending.arrival),
            )
            for pending in self._pending
        ]

    def health(self) -> Dict:
        """The service's part of a ``health`` answer."""
        return {
            "batches_run": self.batches_run,
            "pending": len(self._pending),
            "served_queries": self.served_queries,
        }

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Tear down the storage governor's spill directory, any worker
        pool the service started itself (a pool passed in stays up —
        its owner closes it), and the event log."""
        if self.governor is not None:
            self.governor.close()
        self._backend.close()
        if self.eventlog is not None:
            self.eventlog.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- convenience -------------------------------------------------------

    def execute(self, query: QuerySpec, **kwargs) -> QueryResult:
        """Submit one query, drain the queue, return its result."""
        record = self._enqueue(query, **kwargs)
        self._drain([record])
        if record.result is None:
            raise ExecutionError(
                "query %s was %s" % (record.label, record.status)
            )
        return record.result
