"""The execute stage of the query lifecycle: one batch executor, two
backends, one record type.

:func:`execute_batch` is the only place a service
:class:`~repro.exec.context.ExecutionContext` is built.  The
:class:`InlineBackend` calls it in-process; the :class:`PoolBackend`
ships each query to a worker process that calls the *same* function on
a batch of one, and merges the records.  Either way the service's one
finish path reads a :class:`BatchRun` (DESIGN.md section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.distributed.coordinator import (
    attach_network, remote_arrival_resolver,
)
from repro.exec.context import ExecutionContext
from repro.exec.engine import QueryResult
from repro.harness.concurrent import run_concurrent
from repro.harness.strategies import make_strategy
from repro.obs.profiles import plan_rows
from repro.optimizer.estimator import CardinalityEstimator
from repro.plan.logical import LogicalNode


@dataclass
class QueryRun:
    """One query's share of a :class:`BatchRun`."""

    result: Optional[QueryResult] = None
    #: Why there is no result (the plan could not pickle, or its
    #: worker died or raised); None when the query ran.
    error: Optional[str] = None
    #: Virtual seconds from the batch's start to this query's finish.
    finish: float = 0.0
    #: The executed plan's :func:`~repro.obs.profiles.plan_rows`.
    operators: List[Dict] = field(default_factory=list)


@dataclass
class BatchRun:
    """What the finish stage needs to know about one executed batch,
    whichever backend ran it.  Picklable: workers ship these back."""

    queries: List[QueryRun]
    #: Virtual seconds the batch occupied the engine.
    seconds: float = 0.0
    #: Peak aggregate intermediate state.
    peak_bytes: int = 0
    #: What admission reconciles its estimates against: the governor's
    #: observed *operator-state* peak when a budget is enforced (its
    #: total peak includes base-table buffer pages, which the
    #: estimates never model), else ``peak_bytes``.
    observed_bytes: int = 0
    #: One :meth:`Metrics.summary` per metric store that ran.
    summaries: List[Dict] = field(default_factory=list)
    #: Rows the batch's scans emitted (the pruned-row-ratio base).
    scanned_rows: int = 0
    #: Fill fraction (None for non-Bloom summaries) of every AIP set
    #: published, in publication order.
    published_fills: List[Optional[float]] = field(default_factory=list)
    #: Raw tracer events on the batch's own zero-based clock, for
    #: ``Tracer.replay``; empty when the run wrote to the service's
    #: tracer directly.
    trace_events: List[tuple] = field(default_factory=list)

    @classmethod
    def merged(cls, runs: Sequence["BatchRun"]) -> "BatchRun":
        """Fold runs that overlapped in separate processes: the clock
        advances by the slowest, state peaks add up."""
        merged = cls([])
        for run in runs:
            merged.queries += run.queries
            merged.seconds = max(merged.seconds, run.seconds)
            merged.peak_bytes += run.peak_bytes
            merged.observed_bytes += run.observed_bytes
            merged.summaries += run.summaries
            merged.scanned_rows += run.scanned_rows
            merged.published_fills += run.published_fills
            merged.trace_events += run.trace_events
        return merged


def execute_batch(
    catalog,
    queries: Sequence[Tuple[LogicalNode, str]],
    short_circuit: bool = True,
    strategy_kwargs: Optional[dict] = None,
    network=None,
    governor=None,
    tracer=None,
) -> BatchRun:
    """Run ``queries`` — ``(plan, strategy_name)`` pairs — concurrently
    on one fresh context: one clock, one aggregate metric store.

    ``network`` paces remote scans on its links (no predicate pushdown,
    matching `repro run`).  Engine errors propagate.
    """
    ctx = ExecutionContext(
        catalog, short_circuit=short_circuit, governor=governor,
    )
    ctx.tracer = tracer
    resolver = None
    if network is not None:
        attach_network(ctx, network)
        resolver = remote_arrival_resolver(network)
    fills: List[Optional[float]] = []

    def observe_publish(op, port, aip_set):
        # Hash-set summaries have no fill fraction.
        fills.append(getattr(aip_set.summary, "fill_fraction", None))

    ctx.aip_publish_hooks.append(observe_publish)

    strategies = [
        make_strategy(name, **(strategy_kwargs or {})) for _, name in queries
    ]
    physicals: Dict[int, object] = {}
    finish_times: Dict[int, float] = {}
    results = run_concurrent(
        [plan for plan, _ in queries], ctx,
        strategies=strategies,
        arrival_resolver=resolver,
        on_plan_finished=lambda i, t: finish_times.setdefault(i, t),
        on_plan_translated=physicals.__setitem__,
    )

    metrics = ctx.metrics
    estimator = CardinalityEstimator(catalog)
    run = BatchRun(
        [],
        seconds=metrics.clock,
        peak_bytes=metrics.peak_state_bytes,
        observed_bytes=(
            governor.take_window_state_peak() if governor is not None
            else metrics.peak_state_bytes
        ),
        summaries=[metrics.summary()],
        published_fills=fills,
    )
    for index, result in enumerate(results):
        physical = physicals[index]
        run.queries.append(QueryRun(
            result,
            finish=finish_times.get(index, metrics.clock),
            operators=plan_rows(physical, metrics, estimator),
        ))
        for scan in physical.scans:
            counters = metrics.operators.get(scan.op_id)
            if counters is not None:
                run.scanned_rows += counters.tuples_out
        # Cut the executed plan's cycles (operators point at each other
        # and at the context, whose strategy points back at the plan),
        # so reference counting frees the plan, its state, its filters'
        # verdict memos and its sink's hold on the result rows as soon
        # as this frame lets go, not at whatever collector pass comes
        # next.
        physical.release()
    ctx.release()
    return run


class InlineBackend:
    """Runs each batch in this process: one engine interleaves the
    batch's queries on one shared clock, under the service's governor
    and tracer (``options``)."""

    #: Engine slots the SLO projection spreads a forming batch over.
    slots = 1

    def __init__(self, catalog, options):
        self._catalog = catalog
        self._options = options

    def execute(self, batch) -> BatchRun:
        return execute_batch(
            self._catalog,
            [(entry.plan, entry.strategy) for entry in batch],
            **self._options,
        )

    def close(self) -> None:
        pass


class PoolBackend:
    """Runs each admitted query start-to-finish in its own worker
    process — real wall-clock concurrency; :meth:`BatchRun.merged` is
    the virtual accounting.  A query whose plan cannot pickle, or whose
    worker dies or raises, becomes an error entry and fails alone.

    ``pool`` is an already-warm :class:`~repro.parallel.pool
    .WorkerPool` to borrow (its owner closes it); otherwise one is
    started lazily on the first batch — a service that only ever
    serves cache hits never pays the spawn cost — warm-loading
    ``catalog_spec`` (or shipping the catalog object itself).
    """

    def __init__(self, catalog, options, registry, tracer, n_workers=None,
                 pool=None, catalog_spec=None):
        self.slots = n_workers if n_workers is not None else pool.n_workers
        self._catalog = catalog
        self._options = options
        self._registry = registry
        self._tracer = tracer
        self._pool = pool
        self._owned = None
        self._catalog_spec = catalog_spec

    def ensure_pool(self):
        if self._pool is None:
            from repro.parallel import CatalogSpec, WorkerPool
            self._pool = self._owned = WorkerPool(
                self.slots,
                self._catalog_spec or CatalogSpec.from_object(self._catalog),
                registry=self._registry, tracer=self._tracer,
            ).start()
        return self._pool

    def execute(self, batch) -> BatchRun:
        from repro.parallel.tasks import CatalogSpec, QueryTask

        pool = self.ensure_pool()
        # Warm workers resolve their init catalog once; tasks then name
        # it symbolically instead of re-shipping it per query.
        task_spec = (
            CatalogSpec.warm() if pool.catalog_spec is not None
            else CatalogSpec.from_object(self._catalog)
        )
        runs: List[Optional[BatchRun]] = [None] * len(batch)
        task_ids: Dict[int, int] = {}
        for index, entry in enumerate(batch):
            try:
                task_ids[index] = pool.submit(QueryTask(
                    task_spec, entry.plan, entry.strategy,
                    self._options, trace=self._tracer is not None,
                    label=entry.label,
                ))
            except ExecutionError as exc:
                runs[index] = BatchRun([QueryRun(error=str(exc))])
        for index, result in zip(
            task_ids, pool.gather(list(task_ids.values()))
        ):
            runs[index] = (
                result.payload["run"] if result.error is None
                else BatchRun([QueryRun(error=result.error)])
            )
        pool.record_busy_fractions()
        return BatchRun.merged(runs)

    def close(self) -> None:
        if self._owned is not None:
            self._owned.close()
            self._pool = self._owned = None
