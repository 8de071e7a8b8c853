"""Wall-clock benchmark: page-driven vs tuple-at-a-time execution.

The virtual clock is identical on both paths by construction (see
tests/exec/test_batch_equivalence.py); what batching buys is *real*
time — it removes the per-tuple heap pop, the per-tuple call chain and
the per-tuple cost bookkeeping that dominate the Python interpreter's
wall clock.  This script measures that on the TPC-H join workloads with
immediate arrivals (the fast-source regime, where every source row is
available at t=0 and batches are maximal).

Usage:
    PYTHONPATH=src python benchmarks/bench_vectorized.py
    PYTHONPATH=src python benchmarks/bench_vectorized.py --smoke

``--smoke`` runs a reduced configuration and exits non-zero if the
batch path is slower than tuple-at-a-time on any measured cell, so CI
catches a regression that de-vectorizes the hot path.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.data.tpch import cached_tpch
from repro.exec.arrival import ArrivalModel
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.harness.strategies import make_strategy
from repro.obs.trace import Tracer
from repro.workloads.registry import get_query

try:
    from benchmarks.figlib import write_bench_json
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from figlib import write_bench_json

#: (qid, paper family) — the TPC-H join workloads of Figures 13/14.
DEFAULT_QUERIES = (
    ("Q4A", "TPC-H 5"),
    ("Q5A", "TPC-H 9"),
    ("Q2A", "TPC-H 17"),
)


def _immediate(node):
    """Every source row available at t=0: maximal batches."""
    return ArrivalModel.immediate()


def run_once(qid: str, strategy: str, scale: float, batch: bool,
             traced: bool = False):
    """One timed execution; returns (wall_seconds, result)."""
    query = get_query(qid)
    catalog = cached_tpch(scale_factor=scale, skew=query.skew)
    plan = query.build_baseline(catalog)
    ctx = ExecutionContext(
        catalog,
        strategy=make_strategy(strategy),
        batch_execution=batch,
    )
    if traced:
        ctx.tracer = Tracer()
    start = time.perf_counter()
    result = execute_plan(plan, ctx, arrival_resolver=_immediate)
    return time.perf_counter() - start, result


def bench_cell(qid: str, strategy: str, scale: float, repeat: int):
    """Best-of-``repeat`` wall times for both paths, plus a sanity check
    that they produced identical results."""
    tuple_times, batch_times = [], []
    tuple_result = batch_result = None
    for _ in range(repeat):
        wall, tuple_result = run_once(qid, strategy, scale, batch=False)
        tuple_times.append(wall)
        wall, batch_result = run_once(qid, strategy, scale, batch=True)
        batch_times.append(wall)
    assert batch_result.rows == tuple_result.rows, "path divergence (rows)"
    assert (
        batch_result.metrics.clock == tuple_result.metrics.clock
    ), "path divergence (virtual clock)"
    return min(tuple_times), min(batch_times)


def trace_overhead_cell(qid: str, strategy: str, scale: float, repeat: int):
    """Best-of-``repeat`` wall times for the batch path untraced vs with
    a live :class:`Tracer`, plus a check that tracing left the virtual
    clock untouched."""
    plain_times, traced_times = [], []
    plain_result = traced_result = None
    for _ in range(repeat):
        wall, plain_result = run_once(qid, strategy, scale, batch=True)
        plain_times.append(wall)
        wall, traced_result = run_once(
            qid, strategy, scale, batch=True, traced=True
        )
        traced_times.append(wall)
    assert traced_result.rows == plain_result.rows, "tracing changed rows"
    assert (
        traced_result.metrics.clock == plain_result.metrics.clock
    ), "tracing changed the virtual clock"
    return min(plain_times), min(traced_times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.01,
                        help="TPC-H scale factor (default 0.01)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per cell; best-of is reported")
    parser.add_argument("--strategy", default="baseline",
                        choices=["baseline", "feedforward", "costbased"])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run; non-zero exit if the batch "
                             "path is slower than tuple-at-a-time")
    parser.add_argument("--trace", action="store_true",
                        help="also measure tracing-enabled overhead on "
                             "the batch path; non-zero exit if any cell "
                             "exceeds the overhead ceiling")
    parser.add_argument("--json", metavar="PATH",
                        help="write per-query speedups for "
                             "benchmarks/check_regression.py")
    args = parser.parse_args(argv)

    #: A live Tracer may cost at most this much batch-path wall time.
    trace_ceiling = 1.10

    #: CI-noise margin: a real de-vectorization regression lands far
    #: below 1x (the measured win is ~10x), while scheduler stalls on a
    #: shared runner can shave an honest 1.0x; only fail well under par.
    smoke_floor = 0.8

    scale = min(args.scale, 0.005) if args.smoke else args.scale
    repeat = 3 if args.smoke else args.repeat

    print("batch-vectorized vs tuple-at-a-time "
          "(immediate arrivals, scale=%g, strategy=%s, best of %d)"
          % (scale, args.strategy, repeat))
    print("%-10s %-10s %12s %12s %9s" % (
        "query", "family", "tuple (s)", "batch (s)", "speedup",
    ))
    worst = float("inf")
    speedups = {}
    for qid, family in DEFAULT_QUERIES:
        tuple_wall, batch_wall = bench_cell(
            qid, args.strategy, scale, repeat
        )
        speedup = tuple_wall / batch_wall if batch_wall > 0 else float("inf")
        speedups[qid] = speedup
        worst = min(worst, speedup)
        print("%-10s %-10s %12.4f %12.4f %8.2fx" % (
            qid, family, tuple_wall, batch_wall, speedup,
        ))
    if args.json:
        write_bench_json(
            args.json, "vectorized",
            config={"scale": scale, "strategy": args.strategy,
                    "smoke": bool(args.smoke)},
            metrics={
                "speedup/%s" % qid: value
                for qid, value in speedups.items()
            },
            # Wall-clock ratios wobble on shared CI runners; allow a
            # wider band than the deterministic virtual-clock cells.
            tolerance=0.4,
        )
    if args.smoke and worst < smoke_floor:
        print("FAIL: batch path slower than tuple-at-a-time "
              "(worst speedup %.2fx, floor %.2fx)" % (worst, smoke_floor))
        return 1
    print("worst speedup %.2fx" % worst)

    if args.trace:
        print()
        print("tracing-enabled overhead on the batch path "
              "(ceiling %.0f%%)" % ((trace_ceiling - 1.0) * 100))
        print("%-10s %12s %12s %10s" % (
            "query", "plain (s)", "traced (s)", "overhead",
        ))
        worst_overhead = 0.0
        for qid, _family in DEFAULT_QUERIES:
            plain_wall, traced_wall = trace_overhead_cell(
                qid, args.strategy, scale, repeat
            )
            overhead = (
                traced_wall / plain_wall if plain_wall > 0 else float("inf")
            )
            worst_overhead = max(worst_overhead, overhead)
            print("%-10s %12.4f %12.4f %9.1f%%" % (
                qid, plain_wall, traced_wall, (overhead - 1.0) * 100,
            ))
        if worst_overhead > trace_ceiling:
            print("FAIL: tracing overhead %.1f%% above the %.0f%% ceiling"
                  % ((worst_overhead - 1.0) * 100,
                     (trace_ceiling - 1.0) * 100))
            return 1
        print("worst tracing overhead %.1f%%"
              % ((worst_overhead - 1.0) * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
