"""Compare two result sets of the spine: ``compare.py A.json B.json``.

``A`` (the parent) and ``B`` (the change) are ``results.json`` files
written by ``run.py --out DIR [--repeat N]``.  One row is printed per
end-to-end metric x workload with both medians and a verdict:

``regressed``   B's median is worse than A's by more than the metric's
                bound (``BENCHMARK.json``; exact metrics have bound 0)
``unresolved``  within the bound, but the run-to-run spread of the
                metric (interquartile range over median) is itself
                wider than the bound, so "no change" cannot be claimed
``improved``    better by more than the bound
``unchanged``   within the bound, and the spread supports saying so

The spread comes from A's own runs when it holds at least four per
workload, otherwise from the committed ``results/BENCH_12.json``.
Exits 1 when any row regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BASELINE = os.path.join(HERE, "results", "BENCH_12.json")

#: End-to-end metrics that are exact counts of a deterministic program:
#: any worsening is a regression.  (BENCHMARK.json must list them under
#: ``per_layer`` because they are 0 on ``point_cached``.)
EXACT = ("virtual_s", "peak_state_mb", "failed_share")

#: The fourth end-to-end metric BENCHMARK.json cannot bound: it is taken
#: in the traced pass.  Its bound is max(10%, 0.25 s), so that it stays
#: usable once ``close()`` no longer blocks for 10 s.
SHUTDOWN = ("shutdown_s", "lower", 0.10)
SHUTDOWN_FLOOR_S = 0.25

MIN_RUNS_FOR_SPREAD = 4


def values_by_cell(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` of one results file."""
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    cells: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        for name, value in run["metrics"].items():
            cells.setdefault(run["workload"], {}).setdefault(
                name, []
            ).append(value)
    return cells


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range over median, as the driver computes it."""
    if len(values) < MIN_RUNS_FOR_SPREAD:
        return None
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0


def verdict(a: float, b: float, better: str, bound: float,
            noise: Optional[float], floor: float = 0.0) -> str:
    worse_by = (b - a) if better == "lower" else (a - b)
    limit = max(bound * abs(a), floor)
    if worse_by > limit:
        return "regressed"
    if noise is not None and noise > bound:
        return "unresolved"
    if -worse_by > limit:
        return "improved"
    return "unchanged"


def compare(path_a: str, path_b: str, out=sys.stdout) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    metrics = [
        (m["name"], m["better"], m["bound"]) for m in benchmark["end_to_end"]
    ] + [
        (m["name"], m["better"], 0.0) for m in benchmark["per_layer"]
        if m["name"] in EXACT
    ] + [SHUTDOWN]
    cells_a = values_by_cell(path_a)
    cells_b = values_by_cell(path_b)
    recorded = values_by_cell(BASELINE) if os.path.exists(BASELINE) else {}
    regressed = 0
    out.write("%-13s %-18s %14s %14s %8s %7s %7s  %s\n" % (
        "workload", "metric", "A median", "B median", "change",
        "bound", "spread", "verdict",
    ))
    for workload in (w["name"] for w in benchmark["workloads"]):
        for name, better, bound in metrics:
            values_a = cells_a.get(workload, {}).get(name)
            values_b = cells_b.get(workload, {}).get(name)
            if not values_a or not values_b:
                continue
            a = statistics.median(values_a)
            b = statistics.median(values_b)
            # Exact metrics have no noise: they differ between runs
            # only where the seeds' inputs do.
            noise = None
            if name not in EXACT:
                noise = spread(values_a)
                if noise is None:
                    noise = spread(recorded.get(workload, {}).get(name, []))
            label = verdict(
                a, b, better, bound, noise,
                SHUTDOWN_FLOOR_S if name == SHUTDOWN[0] else 0.0,
            )
            regressed += label == "regressed"
            out.write("%-13s %-18s %14.4f %14.4f %+7.1f%% %6.0f%% %7s  %s\n" % (
                workload, name, a, b,
                100.0 * (b - a) / abs(a) if a else 0.0, 100.0 * bound,
                "n/a" if noise is None else "%.1f%%" % (100.0 * noise),
                label,
            ))
    out.write("%d regressed\n" % regressed)
    return 1 if regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    sys.exit(compare(sys.argv[1], sys.argv[2]))
