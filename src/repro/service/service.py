"""The query service: a stream of queries on one engine and clock.

:class:`QueryService` is the front door the ROADMAP's "system serving
heavy traffic" needs on top of the one-shot engine.  Queries — SQL
text, Table I workload ids, logical plans, or plan-builder callables —
are submitted with virtual arrival times; the service forms concurrent
batches with a pluggable scheduler, packs each batch under the
admission controller's intermediate-state budget, and executes it via
:func:`~repro.harness.concurrent.run_concurrent` so every batch shares
one clock and one aggregate metric store.  Two caches persist across
queries: the cross-query AIP-set cache (inter-query sideways
information passing) and a result cache keyed by plan fingerprint.

The service model is *batch-sequential*: one engine machine runs one
concurrent batch at a time; queries arriving mid-batch wait in the
queue and their wait shows up in the per-query report.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.common.errors import ExecutionError
from repro.data.catalog import Catalog
from repro.exec.context import ExecutionContext
from repro.exec.engine import QueryResult
from repro.exec.metrics import Metrics, seconds_to_ticks
from repro.harness.concurrent import run_concurrent
from repro.harness.strategies import make_strategy, uses_magic_plan
from repro.obs.eventlog import open_event_log
from repro.obs.feedback import FeedbackStore
from repro.obs.profiles import ProfileRing, QueryProfile, operator_table
from repro.obs.registry import RATIO_BUCKETS, MetricsRegistry, percentile
from repro.optimizer.cost import PlanCoster
from repro.optimizer.estimator import CardinalityEstimator
from repro.plan.logical import LogicalNode
from repro.service.admission import (
    ADMIT, SHED, AdmissionController, estimate_query_state_bytes,
)
from repro.service.aip_cache import AIPSetCache
from repro.service.config import ServiceConfig, TenantQuota, coerce_config
from repro.service.fingerprint import plan_signature
from repro.service.result import result_from_outcome
from repro.service.result_cache import ResultCache
from repro.service.schedulers import Scheduler, make_scheduler
from repro.service.workload import WorkloadItem
from repro.workloads.registry import QUERIES, get_query

#: Statuses a submitted query can end in.
OK = "ok"
CACHED = "cached"
SHED_STATUS = "shed"
#: Parallel mode only: the worker carrying this query died or raised.
ERROR = "error"

QuerySpec = Union[str, LogicalNode, Callable[[Catalog], LogicalNode]]

#: Per-batch engine counters the service accumulates for one run's
#: report (everything :meth:`Metrics.summary` reports that is additive
#: across batches rather than a clock or a peak).
_ENGINE_TOTAL_KEYS = (
    "tuples_pruned", "aip_sets_created", "aip_sets_declined",
    "aip_bytes_shipped", "network_bytes", "spill_bytes", "spill_events",
    "pages_pushed", "rows_selected",
)


class _PendingQuery:
    """A submitted query waiting for dispatch."""

    __slots__ = (
        "seq", "label", "plan", "signature", "arrival", "strategy_name",
        "state_estimate", "cost_estimate", "tenant", "miss_counted",
    )

    def __init__(self, seq, label, plan, signature, arrival, strategy_name,
                 state_estimate, cost_estimate, tenant=None):
        self.seq = seq
        self.label = label
        self.plan = plan
        self.signature = signature
        self.arrival = arrival
        self.strategy_name = strategy_name
        self.state_estimate = state_estimate
        self.cost_estimate = cost_estimate
        #: Fair-share scheduling class (None = the anonymous tenant).
        self.tenant = tenant
        #: Whether this query's first result-cache miss was recorded
        #: (re-probes while queued must not inflate the miss count).
        self.miss_counted = False


def _fair_interleave(ordered: List["_PendingQuery"]) -> List["_PendingQuery"]:
    """Round-robin the scheduler's ordering across tenants.

    Within one tenant the scheduler's relative order is preserved;
    across tenants, admission slots alternate so one tenant's burst
    cannot starve another's single query out of a packed batch.
    Tenants rotate in first-appearance order, so the result is
    deterministic for a given input ordering.
    """
    by_tenant: Dict[Optional[str], List[_PendingQuery]] = {}
    for entry in ordered:
        by_tenant.setdefault(entry.tenant, []).append(entry)
    if len(by_tenant) <= 1:
        return ordered
    out: List[_PendingQuery] = []
    queues = list(by_tenant.values())
    while queues:
        still_live = []
        for queue in queues:
            out.append(queue.pop(0))
            if queue:
                still_live.append(queue)
        queues = still_live
    return out


class QueryOutcome:
    """Everything the service reports about one submitted query."""

    __slots__ = (
        "seq", "label", "status", "strategy", "arrival", "start", "finish",
        "result", "batch", "state_estimate", "aip_filters_injected",
        "aip_tuples_pruned", "tenant", "reason",
    )

    def __init__(self, seq: int, label: str, status: str, strategy: str,
                 arrival: float, start: float, finish: float,
                 result: Optional[QueryResult], batch: int,
                 state_estimate: float, tenant: Optional[str] = None,
                 reason: Optional[str] = None):
        self.seq = seq
        self.label = label
        self.status = status
        self.strategy = strategy
        self.arrival = arrival
        self.start = start
        self.finish = finish
        self.result = result
        #: Index of the concurrent batch this query ran in (-1 if none).
        self.batch = batch
        self.state_estimate = state_estimate
        #: Fair-share / quota class the query was submitted under.
        self.tenant = tenant
        #: Why a non-ok outcome ended: ``admission``, ``slo``,
        #: ``quota:concurrent``, ``quota:state`` or an error message.
        self.reason = reason
        #: Filters re-injected from the cross-query AIP cache, and the
        #: tuples they pruned in this query.
        self.aip_filters_injected = 0
        self.aip_tuples_pruned = 0

    @property
    def queue_wait(self) -> float:
        return self.start - self.arrival

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def rows(self) -> int:
        return len(self.result) if self.result is not None else 0

    def to_result(self):
        """The public transport-independent view of this outcome (one
        :class:`repro.service.result.QueryResult`); the shape both the
        socket server and the in-process client hand to callers."""
        return result_from_outcome(self, tenant=self.tenant)

    def __repr__(self) -> str:
        return "QueryOutcome(%s %s: wait=%.4f latency=%.4f)" % (
            self.label, self.status, self.queue_wait, self.latency,
        )


def _stats_delta(before: Optional[Dict], after: Optional[Dict]) -> Optional[Dict]:
    """Run-scope cumulative counters; point-in-time gauges stay as-is."""
    if after is None:
        return None
    if before is None:
        return dict(after)
    return {
        key: value if key in ("entries", "bytes") else value - before[key]
        for key, value in after.items()
    }


class ServiceReport:
    """Aggregate throughput report over one service run.

    ``elapsed``, ``peak`` and the cache stats all describe *this* run's
    window; a reused service keeps its cumulative clock, peak and cache
    counters separately (``admission`` remains the service-lifetime
    controller object).
    """

    def __init__(self, service: "QueryService", outcomes: List[QueryOutcome],
                 elapsed: float, peak: int,
                 aip_cache_stats: Optional[Dict],
                 result_cache_stats: Optional[Dict],
                 engine: Optional[Dict] = None,
                 storage: Optional[Dict] = None):
        self.outcomes = outcomes
        self.total_virtual_seconds = elapsed
        self.peak_state_bytes = peak
        #: None when the corresponding cache is disabled.
        self.aip_cache_stats = aip_cache_stats
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
        return [o.to_result() for o in self.outcomes]

    @property
    def completed(self) -> List[QueryOutcome]:
        return [o for o in self.outcomes if o.status in (OK, CACHED)]

    @property
    def shed(self) -> List[QueryOutcome]:
        return [o for o in self.outcomes if o.status == SHED_STATUS]

    @property
    def failed(self) -> List[QueryOutcome]:
        """Parallel mode only: queries lost to worker faults."""
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
            "aip_cache_hit_rate": self._hit_rate(self.aip_cache_stats),
            "aip_cache_mb": (
                self.aip_cache_stats["bytes"] / 1e6
                if self.aip_cache_stats else 0.0
            ),
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
        lines = ["%-4s %-10s %-7s %8s %10s %10s %10s %7s" % (
            "#", "query", "status", "rows", "wait (vs)", "latency",
            "finish", "xq-cut",
        )]
        # The per-query columns come from the unified public view, so
        # this table can never drift from what a client was handed.
        for o in self.outcomes:
            view = o.to_result()
            lines.append("%-4d %-10s %-7s %8d %10.4f %10.4f %10.4f %7d" % (
                view.seq, view.label[:10], view.status, len(view),
                view.queue_wait, view.latency, o.finish,
                o.aip_tuples_pruned,
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
        if self.aip_cache_stats is not None:
            lines.append(
                "-- AIP cache: %d sets (%.3f MB), %.0f%% hit rate, "
                "%d filters re-injected" % (
                    self.aip_cache_stats["entries"],
                    self.aip_cache_stats["bytes"] / 1e6,
                    100 * self._hit_rate(self.aip_cache_stats),
                    self.aip_cache_stats["filters_injected"],
                )
            )
        return "\n".join(lines)


class QueryService:
    """Runs a stream of queries against one catalog on one clock."""

    def __init__(self, catalog: Catalog, config=None, **kwargs):
        """``config`` is a :class:`ServiceConfig` (the redesigned API);
        the historical loose kwargs — ``QueryService(catalog,
        strategy=..., max_concurrent=...)`` — are still accepted and
        folded into a config by the compatibility shim, as is the old
        positional-strategy form.  Kwargs passed *alongside* a config
        override its fields."""
        config = coerce_config(config, kwargs)
        #: The resolved configuration; every knob below reads from it.
        self.config = config
        strategy = config.strategy
        scheduler = config.scheduler
        memory_budget = config.memory_budget
        parallel = config.parallel
        pool = config.pool
        tracer = config.tracer
        self.catalog = catalog
        self.default_strategy = strategy
        #: Worker-pool size for real wall-clock parallel batches; None
        #: keeps the serial shared-clock loop.  ``pool`` supplies an
        #: already-warm :class:`~repro.parallel.pool.WorkerPool` to
        #: reuse (the service then never closes it); otherwise the pool
        #: is started lazily on the first parallel batch, warm-loading
        #: ``catalog_spec`` (or shipping the catalog object itself).
        self.parallel = (
            parallel if parallel is not None
            else (pool.n_workers if pool is not None else None)
        )
        self._pool = pool
        self._owns_pool = False
        self._catalog_spec = config.catalog_spec
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
        #: Observed per-fingerprint cardinalities, recorded for every
        #: completed plan — the recording half of the runtime-feedback
        #: loop.
        self.feedback = FeedbackStore()
        #: Retained profiles of the last-N finished queries (the
        #: ``profile`` admin frame's backing store; shares its
        #: est-vs-actual walk with the feedback store).
        self.profiles = ProfileRing(config.profile_retention)
        #: Latency threshold (ms) for slow-query entries; None = off.
        self.slow_query_ms = config.slow_query_ms
        #: Structured JSONL lifecycle log, or None (disabled — the
        #: hook everywhere is one ``is None`` check, like the tracer).
        self.eventlog = open_event_log(
            config.event_log, config.event_log_max_bytes
        )
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
        self.aip_cache = AIPSetCache() if config.aip_cache else None
        self.result_cache = ResultCache() if config.result_cache else None
        self.strategy_kwargs = dict(config.strategy_kwargs or {})
        self.short_circuit = config.short_circuit
        #: Page-driven engine loop for every dispatched batch
        #: (observably identical to tuple-at-a-time; on by default).
        self.batch_execution = config.batch_execution
        self.coster = PlanCoster(catalog)
        #: The service's virtual clock, advanced batch by batch.
        self.clock = 0.0
        #: Highest aggregate intermediate state any batch reached.
        self.peak_state_bytes = 0
        self._run_peak = 0
        self.batches_run = 0
        self._pending: List[_PendingQuery] = []
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
        fair-share class: a parallel service interleaves admission
        across tenants so no tenant's burst monopolises a batch.
        """
        strategy_name = strategy or self.default_strategy
        # Fail fast on a bad strategy name: raising later, mid-batch,
        # would leak acquired admission slots and wedge the service.
        make_strategy(strategy_name, **self.strategy_kwargs)
        plan, label = self._build_plan(query, strategy_name, label)
        if self.placement is not None:
            from repro.distributed.coordinator import (
                apply_broadcast_fanouts, mark_remote_scans,
            )
            mark_remote_scans(plan, self.placement)
            apply_broadcast_fanouts(plan, self.catalog)
        self._seq += 1
        self._pending.append(_PendingQuery(
            self._seq, label, plan, plan_signature(plan),
            self.clock + arrival, strategy_name,
            estimate_query_state_bytes(plan, self.coster),
            self.coster.total_cost(plan),
            tenant=tenant,
        ))
        return self._seq

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
            if uses_magic_plan(strategy_name) and workload.has_magic:
                plan = workload.build_magic(self.catalog)
            else:
                plan = workload.build_baseline(self.catalog)
            if workload.is_distributed:
                # Same placement the runner builds for `repro run`.
                from repro.distributed.coordinator import mark_remote_scans
                from repro.distributed.site import Placement, Site
                mark_remote_scans(plan, Placement(
                    [Site("remote-1", workload.remote_tables)]
                ))
            return plan, label or query
        from repro.sql import sql_to_plan
        return sql_to_plan(self.catalog, query), label or "sql"

    # -- execution ---------------------------------------------------------

    def run_workload(self, items: Sequence[WorkloadItem]) -> ServiceReport:
        """Submit a parsed stream and drain it."""
        for item in items:
            self.submit_item(item)
        return self.run()

    def _storage_snapshot(self) -> Optional[Dict]:
        if self.governor is None:
            return None
        return {
            "budget": self.governor.budget,
            "peak_resident_bytes": self.governor.peak_resident_bytes,
            "over_budget_events": self.governor.over_budget_events,
            "spilled_bytes": self.governor.backend.bytes_written,
            "evictions": self.governor.buffer.evictions,
            "reloads": self.governor.buffer.reloads,
        }

    @staticmethod
    def _storage_delta(before, after) -> Optional[Dict]:
        """Run-scope counter deltas; budget and lifetime peak as-is."""
        if after is None:
            return None
        if before is None:
            return dict(after)
        keep = ("budget", "peak_resident_bytes")
        return {
            key: value if key in keep else value - before[key]
            for key, value in after.items()
        }

    def run(self) -> ServiceReport:
        """Drain the queue, batch by batch, and report on this run."""
        outcomes: List[QueryOutcome] = []
        started = self.clock
        self._run_peak = 0
        self._run_engine = dict.fromkeys(_ENGINE_TOTAL_KEYS, 0)
        storage_before = self._storage_snapshot()
        aip_before = (
            self.aip_cache.stats() if self.aip_cache is not None else None
        )
        result_before = (
            self.result_cache.stats()
            if self.result_cache is not None else None
        )
        while self._pending:
            ready = [p for p in self._pending if p.arrival <= self.clock]
            if not ready:
                self.clock = min(p.arrival for p in self._pending)
                continue
            outcomes.extend(self._dispatch(self.scheduler.order(ready)))
        outcomes.sort(key=lambda o: o.seq)
        return ServiceReport(
            self, outcomes,
            elapsed=self.clock - started, peak=self._run_peak,
            aip_cache_stats=_stats_delta(
                aip_before,
                self.aip_cache.stats()
                if self.aip_cache is not None else None,
            ),
            result_cache_stats=_stats_delta(
                result_before,
                self.result_cache.stats()
                if self.result_cache is not None else None,
            ),
            engine=dict(self._run_engine),
            storage=self._storage_delta(
                storage_before, self._storage_snapshot()
            ),
        )

    def _dispatch(self, ordered: List[_PendingQuery]) -> List[QueryOutcome]:
        """Resolve cache hits and sheds, pack one batch, and run it."""
        from repro.harness.strategies import BASELINE, MAGIC

        tracer = self.tracer
        if self._parallel_mode():
            ordered = _fair_interleave(ordered)
        if tracer is not None:
            tracer.instant(
                "sched.pick", "service", seconds_to_ticks(self.clock),
                {
                    "ready": len(ordered),
                    "pending": len(self._pending),
                    "scheduler": self.scheduler.describe(),
                },
            )
        self.registry.gauge("admission.queue_depth").set(len(self._pending))
        outcomes: List[QueryOutcome] = []
        batch: List[_PendingQuery] = []
        #: Estimated cost already packed, for SLO latency projection.
        packed_cost = 0.0
        #: Per-tenant packed load this round, for hard-quota checks
        #: (batch-sequential service: nothing else is in flight).
        tenant_packed: Dict[Optional[str], int] = {}
        tenant_bytes: Dict[Optional[str], float] = {}
        #: signature -> strategy name of the twin already in the batch.
        batch_signatures: Dict[str, str] = {}
        consumed: set = set()
        for entry in ordered:
            twin_strategy = batch_signatures.get(entry.signature)
            if twin_strategy is not None and (
                self.result_cache is not None
                or (self.aip_cache is not None
                    and twin_strategy not in (BASELINE, MAGIC)
                    and entry.strategy_name not in (BASELINE, MAGIC))
            ):
                # A twin of this query is already in the forming batch
                # and will leave something to reap — a cached result, or
                # (if its strategy publishes AIP sets) cross-query
                # filters.  Hold this one back one batch rather than
                # redundantly recomputing alongside it.  A twin that
                # leaves nothing behind (baseline/magic with no result
                # cache) packs concurrently as usual.
                continue
            if self.result_cache is not None:
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
                    start = self.clock
                    self.clock += self.coster.cost_model.manager_invocation
                    if tracer is not None:
                        tracer.instant(
                            "cache.result.hit", "cache",
                            seconds_to_ticks(start),
                            {"query": entry.label, "rows": len(result)},
                        )
                    self.registry.counter("cache.result.hits").inc()
                    outcome = QueryOutcome(
                        entry.seq, entry.label, CACHED, entry.strategy_name,
                        entry.arrival, start, self.clock, result, -1,
                        entry.state_estimate, tenant=entry.tenant,
                    )
                    self._observe_latency(outcome)
                    self._finish_query(outcome, entry.signature)
                    outcomes.append(outcome)
                    continue
                if not entry.miss_counted:
                    if tracer is not None:
                        tracer.instant(
                            "cache.result.miss", "cache",
                            seconds_to_ticks(self.clock),
                            {"query": entry.label},
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
                if tracer is not None:
                    tracer.instant(
                        "admission.quota_shed", "service",
                        seconds_to_ticks(self.clock),
                        {
                            "query": entry.label,
                            "tenant": entry.tenant,
                            "reason": quota_reason,
                        },
                    )
                consumed.add(entry.seq)
                outcomes.append(
                    self._shed(entry, quota_reason, "quota.shed")
                )
                continue
            if self.slo_seconds is not None:
                # Project this query's latency were it packed now: the
                # wait it has already accrued plus the forming batch's
                # estimated cost spread across the engine slots.  A
                # query that cannot meet its objective is shed *now* —
                # finishing it late would only steal capacity from
                # queries that can still make theirs.
                slots = max(1, self.parallel or 1)
                projected = (self.clock - entry.arrival) + (
                    packed_cost + entry.cost_estimate
                ) / slots
                if projected > self.slo_seconds:
                    if tracer is not None:
                        tracer.instant(
                            "admission.slo_shed", "service",
                            seconds_to_ticks(self.clock),
                            {
                                "query": entry.label,
                                "projected_latency": projected,
                                "slo_seconds": self.slo_seconds,
                            },
                        )
                    consumed.add(entry.seq)
                    outcomes.append(self._shed(entry, "slo", "slo.shed"))
                    continue
            decision = self.admission.decide(entry.state_estimate)
            if tracer is not None:
                tracer.instant(
                    "admission.%s" % decision, "service",
                    seconds_to_ticks(self.clock),
                    {
                        "query": entry.label,
                        "state_estimate": entry.state_estimate,
                    },
                )
            if decision == SHED:
                consumed.add(entry.seq)
                outcomes.append(
                    self._shed(entry, "admission", "admission.shed")
                )
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
            batch_signatures.setdefault(entry.signature, entry.strategy_name)
        if consumed:
            # One filter pass instead of per-entry list.remove scans.
            self._pending = [
                p for p in self._pending if p.seq not in consumed
            ]
        if batch:
            outcomes.extend(
                self._run_batch_parallel(batch)
                if self._parallel_mode() else self._run_batch(batch)
            )
        return outcomes

    def _quota_violation(
        self,
        entry: _PendingQuery,
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

    def _shed(self, entry: _PendingQuery, reason: str,
              counter_name: str) -> QueryOutcome:
        """One shed decision: labeled counter, event-log entry,
        retained profile, and the outcome itself."""
        self.registry.counter(counter_name).labels(
            tenant=self._tenant_label(entry.tenant)
        ).inc()
        self._emit_event(
            "shed", seq=entry.seq, label=entry.label,
            tenant=entry.tenant, reason=reason,
        )
        outcome = QueryOutcome(
            entry.seq, entry.label, SHED_STATUS, entry.strategy_name,
            entry.arrival, self.clock, self.clock, None, -1,
            entry.state_estimate, tenant=entry.tenant, reason=reason,
        )
        self._finish_query(outcome, entry.signature)
        return outcome

    def _observe_latency(self, outcome: QueryOutcome) -> None:
        """Fold one finished query into the latency distributions:
        the per-tenant labeled series feeds the unlabeled aggregate
        via the registry's roll-up."""
        self.registry.histogram("query.latency_s").labels(
            tenant=self._tenant_label(outcome.tenant)
        ).observe(outcome.latency)

    def _finish_query(self, outcome: QueryOutcome, signature: str,
                      operators=None) -> QueryProfile:
        """Retain one finished query's profile and, past the slow-query
        threshold, log the profile with its EXPLAIN-ANALYZE rendering."""
        profile = QueryProfile.from_outcome(
            outcome, signature, operators=operators
        )
        self.profiles.record(profile)
        if (
            self.slow_query_ms is not None
            and outcome.status in (OK, CACHED)
            and profile.latency * 1000.0 >= self.slow_query_ms
        ):
            self.registry.counter("queries.slow").labels(
                tenant=self._tenant_label(outcome.tenant)
            ).inc()
            self._emit_event(
                "slow_query", seq=outcome.seq, label=outcome.label,
                tenant=outcome.tenant,
                latency_ms=profile.latency * 1000.0,
                threshold_ms=self.slow_query_ms,
                profile=profile.as_dict(), explain=profile.render(),
            )
        return profile

    def _arrival_resolver(self):
        """Remote scans pace on the service's network links via the
        coordinator's shared resolver (no predicate pushdown, matching
        the runner's `repro run` defaults)."""
        from repro.distributed.coordinator import remote_arrival_resolver

        return remote_arrival_resolver(self.network)

    def _run_batch(self, batch: List[_PendingQuery]) -> List[QueryOutcome]:
        # Everything from here until the release must sit inside the
        # try: an acquired entry whose batch dies during *setup* (bad
        # network link, hook registration) must release its reserved
        # bytes exactly like one that dies mid-execution, or the
        # controller leaks budget and later queries queue forever.
        # The governor epoch gives a failed batch the same guarantee
        # for *enforced* bytes: dead operators' leases, spill handlers
        # and buffer frames all roll back.
        epoch = (
            self.governor.begin_epoch()
            if self.governor is not None else None
        )
        finish_times: Dict[int, float] = {}
        tracer = self.tracer
        try:
            ctx = ExecutionContext(
                self.catalog,
                short_circuit=self.short_circuit,
                batch_execution=self.batch_execution,
                governor=self.governor,
            )
            ctx.tracer = tracer
            if tracer is not None:
                # Each batch's engine clock restarts at zero; offset its
                # events onto the service timeline.
                tracer.offset = seconds_to_ticks(self.clock)
            # Align the batch context with the service's network,
            # exactly as the coordinator does for one-shot distributed
            # runs.
            default_link = self.network.link_to("__default__")
            ctx.cost_model.network_bandwidth = default_link.bandwidth
            ctx.cost_model.network_latency = default_link.latency
            ctx.network = self.network
            if self.aip_cache is not None:
                ctx.aip_publish_hooks.append(self.aip_cache.recorder(ctx))

            registry = self.registry

            def observe_publish(op, port, aip_set):
                registry.counter("aip.sets_published").inc()
                # Bloom summaries expose fill_fraction as a property on
                # some implementations and a method on others.
                fill = getattr(aip_set.summary, "fill_fraction", None)
                if callable(fill):
                    fill = fill()
                if fill is not None:
                    registry.histogram(
                        "aip.bloom_fill_fraction", RATIO_BUCKETS
                    ).observe(fill)

            ctx.aip_publish_hooks.append(observe_publish)

            injected: Dict[int, List] = {}
            physicals: Dict[int, object] = {}
            strategies_made: List = []

            def on_translated(index, physical):
                # Keep the translated plan: the feedback store pairs
                # its logical nodes' estimates with the executed
                # operators' counters at completion.
                physicals[index] = physical
                if self.aip_cache is None:
                    return
                # Baseline/magic queries are the paper's no-AIP
                # comparison points; leave them untouched (mirroring
                # the twin-hold exclusion) so service-level strategy
                # comparisons stay honest.  Cached-set consumers are
                # the AIP strategies.
                from repro.harness.strategies import BASELINE, MAGIC
                if batch[index].strategy_name in (BASELINE, MAGIC):
                    return
                # The strategy attached just before this callback;
                # reuse its predicate graph / candidate index when it
                # has them.
                strategy = strategies_made[index]
                graph = getattr(strategy, "graph", None)
                if graph is None:
                    registry = getattr(strategy, "registry", None)
                    graph = getattr(registry, "graph", None)
                injected[index] = self.aip_cache.inject(
                    physical, ctx,
                    graph=graph, candidates=getattr(strategy, "index", None),
                )

            strategies = [
                make_strategy(p.strategy_name, **self.strategy_kwargs)
                for p in batch
            ]
            strategies_made.extend(strategies)
            results = run_concurrent(
                [p.plan for p in batch], ctx,
                strategies=strategies,
                arrival_resolver=self._arrival_resolver(),
                on_plan_finished=lambda i, t: finish_times.setdefault(i, t),
                on_plan_translated=on_translated,
            )
        except BaseException:
            if epoch is not None:
                self.governor.abort_epoch(epoch)
            raise
        finally:
            if tracer is not None:
                tracer.offset = 0
            for entry in batch:
                self.admission.release(entry.state_estimate)

        # Reconcile what admission believed against what the batch
        # actually held: the governor's observed *operator-state* peak
        # when a budget is enforced (its total peak includes base-table
        # buffer pages, which the estimates never model), the metric
        # store's peak otherwise.  Success path only — a batch that
        # raised reported nothing trustworthy.
        observed = (
            self.governor.take_window_state_peak()
            if self.governor is not None
            else ctx.metrics.peak_state_bytes
        )
        self.admission.observe(
            sum(entry.state_estimate for entry in batch), observed
        )

        batch_seconds = ctx.metrics.clock
        self.peak_state_bytes = max(
            self.peak_state_bytes, ctx.metrics.peak_state_bytes
        )
        self._run_peak = max(self._run_peak, ctx.metrics.peak_state_bytes)
        batch_index = self.batches_run
        self.batches_run += 1
        start = self.clock
        self.clock += batch_seconds

        spill_before = (
            self._run_engine["spill_bytes"], self._run_engine["spill_events"]
        )
        self._fold_batch_metrics(ctx, physicals)
        spilled_events = self._run_engine["spill_events"] - spill_before[1]
        if spilled_events:
            self._emit_event(
                "spill", batch=batch_index,
                spill_bytes=(
                    self._run_engine["spill_bytes"] - spill_before[0]
                ),
                spill_events=spilled_events,
            )
        estimator = CardinalityEstimator(self.catalog)
        for physical in physicals.values():
            self.feedback.record_plan(physical, ctx.metrics, estimator)
        if tracer is not None:
            tracer.complete(
                "service.batch", "service", seconds_to_ticks(start),
                seconds_to_ticks(batch_seconds),
                {"batch": batch_index, "queries": len(batch)},
            )
        self._emit_event(
            "batch_complete", batch=batch_index, queries=len(batch),
            virtual_seconds=batch_seconds,
        )

        outcomes = []
        for index, (entry, result) in enumerate(zip(batch, results)):
            finish = start + finish_times.get(index, batch_seconds)
            if self.result_cache is not None:
                self.result_cache.store(
                    entry.signature, result.rows, result.schema,
                    finish_times.get(index, batch_seconds),
                )
            outcome = QueryOutcome(
                entry.seq, entry.label, OK, entry.strategy_name,
                entry.arrival, start, finish, result, batch_index,
                entry.state_estimate, tenant=entry.tenant,
            )
            filters = injected.get(index, ())
            outcome.aip_filters_injected = len(filters)
            outcome.aip_tuples_pruned = sum(f.pruned for f in filters)
            self.registry.counter("queries.completed").inc()
            self._observe_latency(outcome)
            self.registry.histogram("query.queue_wait_s").observe(
                outcome.queue_wait
            )
            physical = physicals.get(index)
            self._finish_query(
                outcome, entry.signature,
                operators=(
                    operator_table(physical, ctx.metrics, estimator)
                    if physical is not None else None
                ),
            )
            outcomes.append(outcome)
        return outcomes

    # -- parallel execution ------------------------------------------------

    def _parallel_mode(self) -> bool:
        return self._pool is not None or bool(self.parallel)

    def _ensure_pool(self):
        """The service's worker pool, started lazily on the first
        parallel batch so a parallel-configured service that only ever
        serves cache hits never pays the spawn cost."""
        if self._pool is None:
            from repro.parallel import CatalogSpec, WorkerPool
            spec = self._catalog_spec
            if spec is None:
                spec = CatalogSpec.from_object(self.catalog)
            self._pool = WorkerPool(
                self.parallel, spec,
                registry=self.registry, tracer=self.tracer,
            ).start()
            self._owns_pool = True
        return self._pool

    def _run_batch_parallel(
        self, batch: List[_PendingQuery]
    ) -> List[QueryOutcome]:
        """Dispatch one admitted batch onto the worker pool.

        Each admitted query runs start-to-finish in its own worker
        process — real wall-clock concurrency, where the serial loop
        interleaves one engine on one shared clock.  Virtual
        accounting: every query keeps its *own* engine clock; the
        service clock advances by the slowest member (the workers
        genuinely overlap) and each query's finish uses its own clock.
        A worker that dies or raises fails only the queries it carried
        (status ``error``); admission is released exactly once per
        entry either way.  Worker trace events and engine counters are
        folded back onto the service timeline and registry.

        Trade-off (DESIGN.md section 11): worker processes share no
        AIP state, so cross-query AIP-cache injection/harvest and
        feedback recording are unavailable in this mode.
        """
        import pickle

        from repro.parallel.tasks import CatalogSpec, QueryTask

        pool = self._ensure_pool()
        tracer = self.tracer
        # Warm workers resolve their init catalog once; tasks then name
        # it symbolically instead of re-shipping it per query.
        task_spec = (
            CatalogSpec.warm() if pool.catalog_spec is not None
            else CatalogSpec.from_object(self.catalog)
        )
        errors: Dict[int, str] = {}
        payloads: Dict[int, dict] = {}
        try:
            task_ids: Dict[int, int] = {}
            for index, entry in enumerate(batch):
                task = QueryTask(
                    task_spec, entry.plan, entry.strategy_name,
                    strategy_kwargs=self.strategy_kwargs,
                    short_circuit=self.short_circuit,
                    batch_execution=self.batch_execution,
                    network=self.network,
                    trace=tracer is not None,
                    label=entry.label,
                )
                try:
                    # Validate before the queue's feeder thread would
                    # turn an unpicklable plan into a silent hang.
                    pickle.dumps(task)
                except Exception as exc:
                    errors[index] = (
                        "query task is not picklable: %r" % (exc,)
                    )
                    continue
                task_ids[index] = pool.submit(task)
            for index, result in zip(
                task_ids, pool.gather(list(task_ids.values()))
            ):
                if result.error is not None:
                    errors[index] = result.error
                else:
                    payloads[index] = result.payload
        finally:
            for entry in batch:
                self.admission.release(entry.state_estimate)

        batch_seconds = 0.0
        peak_total = 0
        for payload in payloads.values():
            metrics = payload["result"].metrics
            batch_seconds = max(batch_seconds, metrics.clock)
            peak_total += metrics.peak_state_bytes
        # The concurrent aggregate the estimates tried to predict is
        # the sum of per-worker peaks: the queries genuinely overlap.
        self.admission.observe(
            sum(entry.state_estimate for entry in batch), peak_total
        )
        self.peak_state_bytes = max(self.peak_state_bytes, peak_total)
        self._run_peak = max(self._run_peak, peak_total)
        batch_index = self.batches_run
        self.batches_run += 1
        start = self.clock
        self.clock += batch_seconds

        self._fold_parallel_metrics(
            [payloads[i]["result"].metrics.summary()
             for i in sorted(payloads)],
            peak_total,
        )
        if tracer is not None:
            offset = seconds_to_ticks(start)
            for index in sorted(payloads):
                tracer.replay(payloads[index]["trace_events"], offset)
            tracer.complete(
                "service.batch", "service", seconds_to_ticks(start),
                seconds_to_ticks(batch_seconds),
                {
                    "batch": batch_index, "queries": len(batch),
                    "parallel": pool.n_workers,
                },
            )
        pool.record_busy_fractions()
        self._emit_event(
            "batch_complete", batch=batch_index, queries=len(batch),
            virtual_seconds=batch_seconds, parallel=pool.n_workers,
        )

        outcomes = []
        for index, entry in enumerate(batch):
            if index in errors:
                self.registry.counter("queries.failed").inc()
                if tracer is not None:
                    tracer.instant(
                        "service.query_error", "service",
                        seconds_to_ticks(start),
                        {"query": entry.label, "error": errors[index]},
                    )
                self._emit_event(
                    "crash", seq=entry.seq, label=entry.label,
                    tenant=entry.tenant, error=errors[index],
                )
                outcome = QueryOutcome(
                    entry.seq, entry.label, ERROR, entry.strategy_name,
                    entry.arrival, start, start, None, batch_index,
                    entry.state_estimate, tenant=entry.tenant,
                    reason=errors[index],
                )
                self._finish_query(outcome, entry.signature)
                outcomes.append(outcome)
                continue
            result = payloads[index]["result"]
            q_seconds = result.metrics.clock
            if self.result_cache is not None:
                self.result_cache.store(
                    entry.signature, result.rows, result.schema, q_seconds,
                )
            outcome = QueryOutcome(
                entry.seq, entry.label, OK, entry.strategy_name,
                entry.arrival, start, start + q_seconds, result,
                batch_index, entry.state_estimate, tenant=entry.tenant,
            )
            self.registry.counter("queries.completed").inc()
            self._observe_latency(outcome)
            self.registry.histogram("query.queue_wait_s").observe(
                outcome.queue_wait
            )
            # Pool workers run their own metric stores without operator
            # attribution, so parallel profiles carry the flat summary
            # but no est-vs-actual operator table.
            self._finish_query(outcome, entry.signature)
            outcomes.append(outcome)
        return outcomes

    def _fold_parallel_metrics(self, summaries, peak_total) -> None:
        """Parallel-mode counterpart of :meth:`_fold_batch_metrics`:
        every worker ran its own metric store, so fold each returned
        summary into the run totals and the lifetime registry."""
        registry = self.registry
        for summary in summaries:
            for key in self._run_engine:
                self._run_engine[key] += summary[key]
            for key in _ENGINE_TOTAL_KEYS:
                registry.counter("engine.%s" % key).inc(summary[key])
        registry.gauge("engine.peak_state_bytes").set(peak_total)

    def _fold_batch_metrics(self, ctx, physicals) -> None:
        """Accumulate one finished batch's engine counters into the
        run totals and the service-lifetime registry."""
        summary = ctx.metrics.summary()
        for key in self._run_engine:
            self._run_engine[key] += summary[key]
        registry = self.registry
        for key in _ENGINE_TOTAL_KEYS:
            registry.counter("engine.%s" % key).inc(summary[key])
        registry.gauge("engine.peak_state_bytes").set(
            ctx.metrics.peak_state_bytes
        )
        if self.governor is not None:
            registry.gauge("governor.resident_bytes").set(
                self.governor.resident_bytes
            )
            registry.gauge("governor.peak_resident_bytes").set(
                self.governor.peak_resident_bytes
            )
        scanned = 0
        for physical in physicals.values():
            for scan in physical.scans:
                counters = ctx.metrics.operators.get(scan.op_id)
                if counters is not None:
                    scanned += counters.tuples_out
        if scanned:
            registry.histogram(
                "aip.pruned_row_ratio", RATIO_BUCKETS
            ).observe(min(1.0, summary["tuples_pruned"] / scanned))

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Tear down the storage governor's spill directory, any worker
        pool the service started itself (a pool passed in stays up —
        its owner closes it), and the event log."""
        if self.governor is not None:
            self.governor.close()
        if self._owns_pool and self._pool is not None:
            self._pool.close()
            self._pool = None
            self._owns_pool = False
        if self.eventlog is not None:
            self.eventlog.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- convenience -------------------------------------------------------

    def execute(self, query: QuerySpec, **kwargs) -> QueryResult:
        """Submit one query, drain the queue, return its result."""
        seq = self.submit(query, **kwargs)
        report = self.run()
        for outcome in report.outcomes:
            if outcome.seq == seq:
                if outcome.result is None:
                    raise ExecutionError(
                        "query %s was %s" % (outcome.label, outcome.status)
                    )
                return outcome.result
        raise ExecutionError("query %d vanished from the service" % seq)
