"""The push engine: a deterministic virtual-time event loop.

The paper's Tukwila engine is heavily multithreaded (three threads per
pipelined hash join).  We substitute a deterministic simulation (see
DESIGN.md): each source's tuples carry arrival times from its
:class:`~repro.exec.arrival.ArrivalModel`; the engine repeatedly takes
the earliest-available tuples, advances the clock to their arrival if
the CPU is idle, and pushes them synchronously through the operator
tree as one column page, charging per-event CPU costs to the same
clock.

This reproduces the two regimes the experiments rely on: with fast
sources the clock is CPU-work dominated (pruning work shows up directly
as shorter running time), and with delayed sources the clock is
arrival dominated (running-time gaps shrink, state savings persist).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ExecutionError
from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.metrics import Metrics, seconds_to_ticks
from repro.exec.operators.base import Operator, StashingOperator
from repro.exec.operators.merge import PMerge
from repro.exec.operators.scan import PScan
from repro.exec.translate import ArrivalResolver, PhysicalPlan, translate
from repro.plan.logical import LogicalNode
from repro.storage.buffer import PagedRows

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


#: Most rows one ungoverned arrival run takes.  A step holds its run's
#: arrival-time vectors and pages at once, so the cap bounds the drive
#: loop's transient memory; whole-table runs would hold a table's worth
#: (DESIGN.md section 4).
RUN_ROWS = 4096


def _run_cap(sources) -> int:
    """The most rows one arrival run takes: :data:`RUN_ROWS`, or under
    a memory budget the rows its run share holds
    (``MemoryGovernor.RUN_BUDGET_FRACTION``), the fewest over the
    buffer-pool scans and at least one of their pages
    (``PagedRows.run_rows``).  While a run is pushed its rows past
    each source's first page sit on the buffer pool's lease
    (:func:`_run_nbytes`), so they count against the budget."""
    cap = RUN_ROWS
    for scan in sources:
        if isinstance(scan.rows, PagedRows):
            cap = scan.rows.run_rows(cap)
    return cap


def _run_nbytes(run) -> int:
    """The bytes ``run`` holds past each buffer-pool source's resident
    page, which :func:`drive_sources` accounts on the pool's lease for
    the drive step."""
    return sum(
        source.rows.run_nbytes(len(rows))
        for source, rows, _ in run
        if isinstance(source.rows, PagedRows)
    )


def _stash_order(sources) -> List[Operator]:
    """The joins, semijoins and merges above the scans, deepest first —
    the order a merged run's flush must visit them, so each holds its
    inputs' pages before it runs.  An operator's depth is its longest
    path up to its plan's root, over every parent edge: an operator
    shared by several parents (as magic-sets rewrites build) sits below
    all of them."""
    depth = {}

    def depth_of(op):
        d = depth.get(op)
        if d is None:
            d = depth[op] = max(
                (depth_of(parent) + 1 for parent, _ in op.parents),
                default=0,
            )
        return d

    try:
        for scan in sources:
            depth_of(scan)
    finally:
        del depth_of  # it reaches itself through its closure: a cycle
    stashing = [
        op for op in depth if isinstance(op, (StashingOperator, PMerge))
    ]
    stashing.sort(key=depth.__getitem__, reverse=True)
    return stashing


def _arrived(scan: PScan, idx: int, now: int, barrier, cap: int):
    """Arrival times from a local source's pending row on, and how many
    of them one run may take: arrived by ``now`` (ticks), ahead of the
    ``(when, idx)`` barrier in the heap's order, and at most ``cap``.
    The vector doubles until it reaches a row past those bounds (that
    row stays pending), the source's last row, or ``cap + 1`` rows — so
    a short run computes few times.  A buffer-pool scan starts the
    vector at the rows due by ``now``, so one vector usually
    suffices."""
    limit = 2
    if isinstance(scan.rows, PagedRows):
        limit = max(2, scan.arrival.local_due(now, cap) + 2)
    while True:
        limit = min(limit, cap + 1)
        times = scan.run_times(limit)
        n = bisect_right(
            times, now, 0, min(cap, len(times)), key=seconds_to_ticks
        )
        if barrier is not None:
            b_when, b_idx = barrier
            bound = bisect_left if idx > b_idx else bisect_right
            n = bound(times, b_when, 0, n)
        if n < len(times) or len(times) < limit:
            return times, n
        limit *= 2


def _take_run(members, barrier, now: int, cap: int):
    """Consume one arrival run from ``members`` — ``(idx, scan)`` pairs
    whose pending rows have arrived by ``now`` — and return it as
    ``(scan, rows, seq)`` triples.

    The run is every member row that has arrived and precedes
    ``barrier`` (the next event of any other source), ordered by the
    heap's own ``(when, source index)`` key, and cut right after the
    last row of a member that exhausts or hits its share of ``cap`` —
    past that point its next rows would belong in the order too.
    ``seq`` holds each row's ordinal in the run, or is None when one
    source fills the whole run.
    """
    if len(members) == 1:
        idx, scan = members[0]
        if not scan.arrival.local:
            b_when, b_idx = barrier if barrier is not None else (None, 0)
            rows = scan.take_paced(now, b_when, b_idx < idx, cap)
            return [(scan, rows, None)]
        times, n = _arrived(scan, idx, now, barrier, cap)
        return [(scan, scan.take_local(n, times), None)]
    members.sort(key=itemgetter(0))  # equal times: lower index first
    share = max(1, cap // len(members))
    times_of, spans, flat = [], [], []
    for idx, scan in members:
        times, n = _arrived(scan, idx, now, barrier, share)
        times_of.append(times)
        spans.append((len(flat), n, n == len(times) or n == share))
        flat.extend(times[:n])
    # A stable sort of the sources' times, concatenated in index order,
    # is exactly the heap's (when, index) order.
    order = sorted(range(len(flat)), key=flat.__getitem__)
    rank = [0] * len(flat)
    for pos, i in enumerate(order):
        rank[i] = pos
    cut = len(flat)
    for start, n, open_end in spans:
        if open_end:
            cut = min(cut, rank[start + n - 1] + 1)
    run = []
    for (_, scan), times, (start, n, _) in zip(members, times_of, spans):
        seq = rank[start:start + n]
        if cut < len(flat):
            del seq[bisect_left(seq, cut):]
        if seq:
            run.append((scan, scan.take_local(len(seq), times), seq))
    if len(run) == 1:
        scan, rows, _ = run[0]
        run[0] = (scan, rows, None)
    return run


def drive_sources(ctx: ExecutionContext, sources: Sequence[PScan]) -> None:
    """The engine loop: drain ``sources`` — the scans of one or of
    several concurrent plans — in arrival order on ``ctx``'s clock,
    bracketed by the strategy's query start/end hooks.

    A source's position in ``sources`` is its heap tie-break: of two
    equal arrival times the earlier-listed source goes first.  A step
    takes a merged arrival run (``_take_run``) from every local source
    whose rows have arrived — across all concurrent plans — and pushes
    each source's slice as one page; the joins, semijoins and merges
    stash those pages and are then flushed deepest-first
    (``_stash_order``), each processing its ports in the run's order.
    For sources that are not ``local``, a run holds one source only
    (shipped filters interleave at row granularity).
    A run takes at most ``_run_cap`` rows.  An exhausted source's
    ``finish`` fires after the run that drained it.  DESIGN.md section
    4 has the invariants this rests on.
    """
    ctx.strategy.on_query_start()

    heap: List[Tuple[float, int, PScan]] = []
    for idx, scan in enumerate(sources):
        when = scan.prime()
        if when is None:
            scan.finish()
        else:
            heapq.heappush(heap, (when, idx, scan))

    stashing = _stash_order(sources)
    cap = _run_cap(sources)
    buffer = ctx.governor.buffer if ctx.governor is not None else None
    metrics = ctx.metrics
    tracer = ctx.tracer
    while heap:
        when, idx, scan = heapq.heappop(heap)
        metrics.wait_until(when)
        now = metrics.clock_ticks
        members = [(idx, scan)]
        if scan.arrival.local:
            while heap:
                top_when, top_idx, top = heap[0]
                if not (
                    top.arrival.local and seconds_to_ticks(top_when) <= now
                ):
                    break
                heapq.heappop(heap)
                members.append((top_idx, top))
        run = _take_run(members, heap[0][:2] if heap else None, now, cap)
        held = 0
        if buffer is not None:
            held = _run_nbytes(run)
            buffer.hold(held, ctx)
        try:
            for source, rows, seq in run:
                source.push_run(rows, seq)
            if len(run) > 1:
                for op in stashing:
                    op.flush_stash()
        finally:
            if held:
                buffer.unhold(held)
        if tracer is not None:
            tracer.complete(
                "drive:%s" % scan.name, "engine", now,
                metrics.clock_ticks - now,
            )
        for member_idx, member in members:
            if member.exhausted:
                member.finish()
            else:
                heapq.heappush(heap, (member.pending_when, member_idx, member))

    ctx.strategy.on_query_end()
    metrics.network_bytes += sum(
        scan.arrival.bytes_transferred
        for scan in sources
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
        drive_sources(self.ctx, plan.scans)
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.complete(
                "query", "engine", query_start,
                metrics.clock_ticks - query_start,
                {"rows": len(sink.rows)},
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
