"""Helpers shared by the per-figure benchmark modules."""

from __future__ import annotations

from repro.harness.report import FigureTable
from repro.harness.runner import run_workload_query

#: One scale factor for all figures, so cross-figure numbers compare.
SCALE_FACTOR = 0.01

METRIC_UNITS = {
    "virtual_seconds": "virtual s",
    "peak_state_mb": "MB",
    "network_bytes": "bytes",
}


def figure_cell(
    benchmark,
    tables,
    key: str,
    title: str,
    queries,
    strategies,
    metric: str,
    qid: str,
    strategy: str,
    column: str = None,
    **run_kwargs,
):
    """Run one (query, strategy) cell under pytest-benchmark and record
    the figure metric.

    Wall time is what pytest-benchmark reports; the figure tables use
    the engine's *virtual* metrics, which are deterministic and match
    the paper's measurement definitions (running time / intermediate
    state).  ``column`` overrides the table column label (used by
    ablation benches that vary a knob under one strategy).
    """
    run_kwargs.setdefault("scale_factor", SCALE_FACTOR)

    record = benchmark.pedantic(
        run_workload_query,
        args=(qid, strategy),
        kwargs=run_kwargs,
        rounds=1,
        iterations=1,
    )

    table = tables.get(key)
    if table is None:
        table = FigureTable(
            title, queries, strategies, metric, METRIC_UNITS[metric],
        )
        tables[key] = table
    value = record.summary[metric]
    table.add(qid, column if column is not None else strategy, value)

    benchmark.extra_info["qid"] = qid
    benchmark.extra_info["strategy"] = strategy
    benchmark.extra_info.update(record.summary)
    return record
