"""EXPLAIN ANALYZE: run a plan, then render estimates against reality.

:mod:`repro.optimizer.explain` renders what the optimizer *believes*;
this module executes the plan and puts the belief next to what the
cardinality counters actually saw — estimated vs actual rows, CPU ticks
attributed to each operator, its peak buffered state, and how many of
its inputs AIP filters pruned.  The per-operator tick and state columns
come from the attribution mode of :class:`~repro.exec.metrics.Metrics`
(``attribute_ops``), which is enabled only here so the normal hot path
pays nothing for it.
"""

from __future__ import annotations

from typing import List

from repro.data.catalog import Catalog
from repro.exec.context import ExecutionContext
from repro.exec.engine import Engine, QueryResult
from repro.exec.translate import translate
from repro.harness.strategies import make_strategy
from repro.obs.profiles import plan_rows
from repro.optimizer.estimator import CardinalityEstimator
from repro.plan.logical import LogicalNode


class AnalyzeRow:
    """One rendered line: a logical operator with its observed numbers."""

    __slots__ = (
        "depth", "label", "node_id", "shared", "est_rows", "actual_rows",
        "ticks", "peak_state_bytes", "pruned",
    )

    def __init__(self, depth, label, node_id, shared=False, est_rows=0.0,
                 actual_rows=0, ticks=0, peak_state_bytes=0, pruned=0):
        self.depth = depth
        self.label = label
        self.node_id = node_id
        self.shared = shared
        self.est_rows = est_rows
        self.actual_rows = actual_rows
        self.ticks = ticks
        self.peak_state_bytes = peak_state_bytes
        self.pruned = pruned


class AnalyzeReport:
    """The executed plan's per-operator table plus its QueryResult."""

    def __init__(self, rows: List[AnalyzeRow], result: QueryResult,
                 strategy_name: str):
        self.rows = rows
        self.result = result
        self.strategy_name = strategy_name

    def render(self) -> str:
        lines = [
            "%-44s %11s %11s %14s %11s %9s" % (
                "operator", "est. rows", "actual", "ticks",
                "peak state", "pruned",
            ),
            "-" * 105,
        ]
        for row in self.rows:
            label = "  " * row.depth + row.label
            if row.shared:
                marker = " (shared)"
                lines.append("%-44s %11s %11s %14s %11s %9s" % (
                    label[: 44 - len(marker)] + marker, "", "", "", "", "",
                ))
                continue
            lines.append("%-44s %11.1f %11d %14d %11d %9d" % (
                label[:44], row.est_rows, row.actual_rows, row.ticks,
                row.peak_state_bytes, row.pruned,
            ))
        metrics = self.result.metrics
        lines.append("-" * 105)
        lines.append(
            "strategy %s: %d rows in %.6f virtual s "
            "(cpu %.6f, idle %.6f); peak state %.3f MB; %d pruned"
            % (
                self.strategy_name, len(self.result), metrics.clock,
                metrics.cpu_time, metrics.idle_time,
                metrics.peak_state_bytes / 1e6, metrics.total_pruned,
            )
        )
        return "\n".join(lines)


def explain_analyze(
    plan: LogicalNode,
    catalog: Catalog,
    strategy: str = "baseline",
    tracer=None,
) -> AnalyzeReport:
    """Execute ``plan`` with per-operator attribution and report.

    Estimates come from a fresh :class:`CardinalityEstimator` that is
    fed no runtime observations, so the est-vs-actual columns show
    exactly the error the static optimizer would have committed to.
    The table is :func:`~repro.obs.profiles.plan_rows` — the walk the
    service's profiles read — plus the attributed tick and peak-state
    columns.
    """
    estimator = CardinalityEstimator(catalog)
    ctx = ExecutionContext(catalog, strategy=make_strategy(strategy))
    ctx.tracer = tracer
    ctx.metrics.attribute_ops = True
    physical = translate(plan, ctx)
    ctx.strategy.attach(ctx, physical)
    result = Engine(ctx).run(physical)

    metrics = ctx.metrics
    rows = [
        AnalyzeRow(
            row["depth"], row["label"], row["node_id"], shared=True,
        ) if row["shared"] else AnalyzeRow(
            row["depth"], row["label"], row["node_id"],
            est_rows=row["est_rows"], actual_rows=row["actual_rows"],
            ticks=metrics.op_ticks.get(row["op_id"], 0),
            peak_state_bytes=metrics.op_state_peaks.get(row["op_id"], 0),
            pruned=row["pruned"],
        )
        for row in plan_rows(physical, metrics, estimator)
    ]
    return AnalyzeReport(rows, result, strategy)
