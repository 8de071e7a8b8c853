"""The push engine: a deterministic virtual-time event loop.

The paper's Tukwila engine is heavily multithreaded (three threads per
pipelined hash join).  We substitute a deterministic simulation (see
DESIGN.md): each source's tuples carry arrival times from its
:class:`~repro.exec.arrival.ArrivalModel`; the engine repeatedly takes
the earliest-available tuple, advances the clock to its arrival if the
CPU is idle, and pushes it synchronously through the operator tree,
charging per-event CPU costs to the same clock.

This reproduces the two regimes the experiments rely on: with fast
sources the clock is CPU-work dominated (pruning work shows up directly
as shorter running time), and with delayed sources the clock is
arrival dominated (running-time gaps shrink, state savings persist).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.metrics import Metrics
from repro.exec.operators.scan import PScan
from repro.exec.translate import ArrivalResolver, PhysicalPlan, translate
from repro.plan.logical import LogicalNode

Row = Tuple


class QueryResult:
    """Rows plus the metrics collected while producing them."""

    def __init__(self, rows: List[Row], schema: Schema, metrics: Metrics):
        self.rows = rows
        self.schema = schema
        self.metrics = metrics

    def sorted_rows(self) -> List[Row]:
        """Rows in a canonical order, for strategy-equivalence checks."""
        return sorted(self.rows, key=repr)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return "QueryResult(%d rows, t=%.6fs)" % (
            len(self.rows), self.metrics.clock,
        )


#: Public alias: ``repro.QueryResult`` now names the transport-neutral
#: client result (repro.service.result); the engine-internal shape is
#: exported as ``repro.EngineResult``.
EngineResult = QueryResult


def plan_batchable(ctx: ExecutionContext, strategy, physical) -> bool:
    """Whether one translated plan may be driven in pages rather than
    tuple-at-a-time: the context opts in, the plan's strategy has no
    per-row-cadence decisions, and the plan's shape supports it.
    Shared by the single-query and concurrent callers so eligibility
    cannot fork."""
    return (
        ctx.batch_execution
        and (strategy is None or strategy.batch_safe)
        and physical.supports_batching()
    )


def drive_sources(
    ctx: ExecutionContext, sources: Sequence[Tuple[PScan, bool]]
) -> None:
    """The engine loop: drain ``sources`` — ``(scan, may_batch)`` pairs,
    possibly of several concurrent plans — in arrival order on
    ``ctx``'s clock, bracketed by the strategy's query start/end hooks.

    A source's position in ``sources`` is its heap tie-break: of two
    equal arrival times the earlier-listed source goes first.  A paged
    drive takes every row that has already arrived and precedes the
    earliest event on any *other* source — across all concurrent plans,
    so a page never reorders one query's rows past another's earlier
    arrivals — and ``b_seq < seq`` tells the scan the other source wins
    an equal arrival time, exactly as the heap would order the entries.
    That tie-break is the subtlest invariant of tuple/page equivalence,
    which is why this loop exists once.
    """
    ctx.strategy.on_query_start()

    heap: List[Tuple[float, int, PScan]] = []
    for seq, (scan, _) in enumerate(sources):
        when = scan.prime()
        if when is None:
            scan.finish()
        else:
            heapq.heappush(heap, (when, seq, scan))

    metrics = ctx.metrics
    tracer = ctx.tracer
    while heap:
        when, seq, scan = heapq.heappop(heap)
        metrics.wait_until(when)
        drive_start = metrics.clock_ticks
        if not sources[seq][1]:
            scan.emit_pending()
            nxt = scan.advance()
        elif heap:
            b_when, b_seq, _ = heap[0]
            nxt = scan.emit_pending_batch(drive_start, b_when, b_seq < seq)
        else:
            nxt = scan.emit_pending_batch(drive_start)
        if tracer is not None:
            tracer.complete(
                "drive:%s" % scan.name, "engine", drive_start,
                metrics.clock_ticks - drive_start,
            )
        if nxt is None:
            scan.finish()
        else:
            heapq.heappush(heap, (nxt, seq, scan))

    ctx.strategy.on_query_end()
    metrics.network_bytes += sum(
        scan.arrival.bytes_transferred
        for scan, _ in sources
        if scan.arrival.bandwidth is not None
    )


class Engine:
    """Runs one translated physical plan to completion."""

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx

    def run(self, plan: PhysicalPlan) -> QueryResult:
        sink = plan.sink
        if not plan.scans:
            raise ExecutionError("plan has no sources")

        metrics = self.ctx.metrics
        query_start = metrics.clock_ticks
        paged = plan_batchable(self.ctx, self.ctx.strategy, plan)
        drive_sources(self.ctx, [(scan, paged) for scan in plan.scans])
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.complete(
                "query", "engine", query_start,
                metrics.clock_ticks - query_start,
                {"rows": len(sink.rows), "paged": paged},
            )

        if not sink.finished:
            raise ExecutionError(
                "all sources drained but the sink never finished; "
                "an operator failed to propagate end-of-stream"
            )
        return QueryResult(sink.rows, sink.out_schema, metrics)


def execute_plan(
    root: LogicalNode,
    ctx: ExecutionContext,
    arrival_resolver: Optional[ArrivalResolver] = None,
) -> QueryResult:
    """Translate ``root``, attach the context's strategy, and run it."""
    plan = translate(root, ctx, arrival_resolver)
    ctx.strategy.attach(ctx, plan)
    return Engine(ctx).run(plan)
