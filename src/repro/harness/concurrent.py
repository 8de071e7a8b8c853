"""Concurrent multi-query execution on one virtual clock.

The paper motivates AIP's memory savings with multi-query settings:
"a reduction in both CPU cost and memory can be very useful in
improving throughput if multiple queries are running concurrently"
(Section VI-B) and "the memory savings may be particularly important in
a system that executes multiple queries simultaneously" (VI-D).

This module runs several plans in one engine: their sources interleave
on the shared clock, their state shares one metric store (so peak
intermediate state is the *aggregate* across queries), and each plan
gets its own strategy instance via :class:`CompositeStrategy`, which
routes engine hooks to the strategy owning the operator.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.common.errors import ExecutionError
from repro.exec.context import ExecutionContext, ExecutionStrategy
from repro.exec.engine import QueryResult, drive_sources
from repro.exec.translate import PhysicalPlan, translate
from repro.plan.logical import LogicalNode


class CompositeStrategy(ExecutionStrategy):
    """Routes per-operator hooks to the strategy owning that operator."""

    def __init__(self):
        self._by_op: dict = {}
        self._strategies: List[ExecutionStrategy] = []

    def adopt(self, strategy: ExecutionStrategy, plan: PhysicalPlan) -> None:
        self._strategies.append(strategy)
        for op in plan.sink.walk():
            self._by_op[op.op_id] = strategy

    def attach(self, ctx, plan) -> None:  # handled per-plan in adopt()
        pass

    def on_query_start(self) -> None:
        for strategy in self._strategies:
            strategy.on_query_start()

    def after_tuples_page(self, op, input_idx, page) -> None:
        strategy = self._by_op.get(op.op_id)
        if strategy is not None:
            strategy.after_tuples_page(op, input_idx, page)

    def on_input_finished(self, op, input_idx) -> None:
        strategy = self._by_op.get(op.op_id)
        if strategy is not None:
            strategy.on_input_finished(op, input_idx)

    def on_query_end(self) -> None:
        for strategy in self._strategies:
            strategy.on_query_end()

    def describe(self) -> str:
        return "composite(%s)" % ", ".join(
            s.describe() for s in self._strategies
        )


def run_concurrent(
    plans: Sequence[LogicalNode],
    ctx: ExecutionContext,
    strategies: Optional[Sequence[Optional[ExecutionStrategy]]] = None,
    arrival_resolver: Optional[Callable] = None,
    on_plan_finished: Optional[Callable[[int, float], None]] = None,
    on_plan_translated: Optional[Callable[[int, PhysicalPlan], None]] = None,
) -> List[QueryResult]:
    """Execute ``plans`` concurrently on ``ctx``'s clock.

    ``strategies`` gives one strategy (or None for baseline) per plan;
    metrics — including peak intermediate state — aggregate across all
    queries, which is precisely the multi-query memory story the paper
    tells.  Returns one :class:`QueryResult` per plan, sharing the same
    metric object.

    ``on_plan_finished(index, clock)`` fires the moment one plan's sink
    completes — queries finish at different points on the shared clock,
    and the service layer reports per-query latency from these times.
    ``on_plan_translated(index, physical)`` fires after each plan is
    translated but before execution; the cross-query AIP cache uses it
    to inject remembered filters into the fresh operators.
    """
    if strategies is None:
        strategies = [None] * len(plans)
    if len(strategies) != len(plans):
        raise ExecutionError("need one strategy per plan")

    composite = CompositeStrategy()
    ctx.strategy = composite

    translated: List[PhysicalPlan] = []
    sources = []  # every plan's scans, in plan order
    for index, (plan, strategy) in enumerate(zip(plans, strategies)):
        physical = translate(plan, ctx, arrival_resolver)
        if strategy is not None:
            strategy.attach(ctx, physical)
            composite.adopt(strategy, physical)
        if on_plan_finished is not None:
            physical.sink.finish_listener = (
                lambda sink, i=index: on_plan_finished(i, ctx.metrics.clock)
            )
        if on_plan_translated is not None:
            on_plan_translated(index, physical)
        sources.extend(physical.scans)
        translated.append(physical)

    metrics = ctx.metrics
    loop_start = metrics.clock_ticks
    drive_sources(ctx, sources)
    if ctx.tracer is not None:
        ctx.tracer.complete(
            "concurrent-batch", "engine", loop_start,
            metrics.clock_ticks - loop_start,
            {"plans": len(translated)},
        )

    results = []
    for physical in translated:
        if not physical.sink.finished:
            raise ExecutionError("a concurrent query never finished")
        results.append(
            QueryResult(physical.sink.rows, physical.sink.out_schema, metrics)
        )
    return results
