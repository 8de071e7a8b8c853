"""Benchmark regression gate: compare bench JSON output to a baseline.

Every perf benchmark (``bench_vectorized.py``, ``bench_summary_layer.py``,
``bench_partitioned.py``, ``bench_spill.py``,
``bench_service_throughput.py``, ``bench_parallel.py``,
``bench_frontdoor.py``) has a
``--json <path>`` mode — all
routed through :func:`benchmarks.figlib.write_bench_json` — writing::

    {"benchmark": "<name>",
     "config": {...},                 # informational
     "tolerance": 0.4,               # optional per-benchmark override
     "metrics": {"<key>": <value>, ...}}

All metric values are **higher-is-better** throughputs or speedups
(virtual-clock cells are exported as 1/seconds).  This script fails —
exit code 1 — when any current metric drops more than the tolerance
(default 25%) below the committed ``benchmarks/baseline.json``, and
when a baselined metric disappears from a benchmark's current output
(a silently dropped cell would otherwise read as "no regression").

Regenerating the baseline after an intentional perf change::

    PYTHONPATH=src python benchmarks/bench_vectorized.py --smoke --json /tmp/v.json
    PYTHONPATH=src python benchmarks/bench_summary_layer.py --smoke --json /tmp/s.json
    PYTHONPATH=src python benchmarks/bench_partitioned.py --smoke --json /tmp/p.json
    PYTHONPATH=src python benchmarks/bench_spill.py --smoke --json /tmp/sp.json
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --json /tmp/st.json
    PYTHONPATH=src python benchmarks/bench_parallel.py --smoke --json /tmp/par.json
    PYTHONPATH=src python benchmarks/bench_frontdoor.py --smoke --json /tmp/fd.json
    python benchmarks/check_regression.py benchmarks/baseline.json \
        /tmp/v.json /tmp/s.json /tmp/p.json /tmp/sp.json \
        /tmp/st.json /tmp/par.json /tmp/fd.json --update

(the same invocation CI uses, plus ``--update``; commit the rewritten
``baseline.json`` with a line in the PR explaining the shift).
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_TOLERANCE = 0.25


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_benchmark(name: str, current: dict, baseline: dict,
                    default_tolerance: float, trend: list) -> list:
    """Failure messages for one benchmark's current payload.

    Every compared metric also lands in ``trend`` as ``(delta_pct,
    name, key, base, current, status)`` for the summary table.
    """
    failures = []
    base_entry = baseline.get(name)
    if base_entry is None:
        print("note: benchmark %r has no baseline yet; run --update" % name)
        return failures
    tolerance = current.get("tolerance", default_tolerance)
    base_metrics = base_entry.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    for key in sorted(base_metrics):
        if key not in cur_metrics:
            failures.append(
                "%s/%s: metric vanished from the benchmark output"
                % (name, key)
            )
            continue
        base_value = base_metrics[key]
        cur_value = cur_metrics[key]
        floor = base_value * (1.0 - tolerance)
        delta_pct = (
            (cur_value - base_value) / base_value * 100.0
            if base_value else 0.0
        )
        status = "ok" if cur_value >= floor else "REGRESSED"
        print("%-12s %-24s baseline %10.3f  current %10.3f  %+7.1f%%  "
              "(floor %10.3f) %s"
              % (name, key, base_value, cur_value, delta_pct, floor, status))
        trend.append((delta_pct, name, key, base_value, cur_value, status))
        if cur_value < floor:
            failures.append(
                "%s/%s: %.3f dropped >%d%% below baseline %.3f"
                % (name, key, cur_value, round(tolerance * 100), base_value)
            )
    for key in sorted(set(cur_metrics) - set(base_metrics)):
        print("note: %s/%s is new (%.3f); --update to baseline it"
              % (name, key, cur_metrics[key]))
    return failures


def print_trend_table(trend: list) -> None:
    """Baseline-vs-current movement, worst first — the at-a-glance
    answer to "what drifted in this run" even when nothing gated."""
    if not trend:
        return
    print()
    print("trend (worst movement first; metrics are higher-is-better):")
    print("  %-12s %-24s %10s %10s %8s  %s"
          % ("benchmark", "metric", "baseline", "current", "delta", ""))
    for delta_pct, name, key, base, cur, status in sorted(trend):
        print("  %-12s %-24s %10.3f %10.3f %+7.1f%%  %s"
              % (name, key, base, cur, delta_pct,
                 status if status != "ok" else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", nargs="+",
                        help="one or more bench --json outputs")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="default allowed drop fraction (per-benchmark "
                             "'tolerance' fields override; default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current "
                             "files instead of checking")
    args = parser.parse_args(argv)

    currents = {}
    for path in args.current:
        payload = load(path)
        name = payload.get("benchmark")
        if not name or "metrics" not in payload:
            print("error: %s is not a bench --json payload" % path,
                  file=sys.stderr)
            return 2
        currents[name] = payload

    if args.update:
        try:
            baseline = load(args.baseline)
        except FileNotFoundError:
            baseline = {}
        baseline.update(currents)
        with open(args.baseline, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("baseline %s updated with: %s"
              % (args.baseline, ", ".join(sorted(currents))))
        return 0

    baseline = load(args.baseline)
    failures = []
    trend = []
    for name, payload in sorted(currents.items()):
        failures.extend(
            check_benchmark(name, payload, baseline, args.tolerance, trend)
        )
    print_trend_table(trend)
    if failures:
        for message in failures:
            print("FAIL: %s" % message)
        return 1
    print("benchmark gate passed (%d benchmarks)" % len(currents))
    return 0


if __name__ == "__main__":
    sys.exit(main())
