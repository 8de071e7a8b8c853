"""Command-line interface.

Usage (``python -m repro ...``)::

    python -m repro list
    python -m repro tables --scale 0.01
    python -m repro run Q1A --strategy feedforward --scale 0.01
    python -m repro run Q2A --strategy all --delayed
    python -m repro run Q2A --strategy costbased --trace-out trace.json
    python -m repro explain Q3A --scale 0.01
    python -m repro explain Q3A --analyze --strategy costbased
    python -m repro workload "Q2A*3,Q1A" --scheduler sjf
    python -m repro workload "Q2A*3" --trace-out t.json --metrics-out m.json
    python -m repro serve --port 7734 --quota tenant-a=2:64m
    python -m repro serve --slow-query-ms 50 --event-log events.jsonl
    python -m repro stats --port 7734
    python -m repro stats --port 7734 --prom
    python -m repro top --port 7734 --interval 2
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from typing import List, Optional

from repro.data.tpch import cached_tpch
from repro.harness.runner import run_workload_query
from repro.harness.strategies import STRATEGIES
from repro.optimizer.explain import explain
from repro.workloads.registry import QUERIES, get_query


def _parse_nbytes(text: str) -> int:
    """Parse a byte count with an optional k/m/g suffix ('64m')."""
    raw = text.strip().lower()
    multiplier = 1
    if raw and raw[-1] in "kmg":
        multiplier = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * multiplier)
    except (ValueError, OverflowError):  # OverflowError: 'inf', '1e400'
        raise argparse.ArgumentTypeError(
            "expected bytes like 500000, 512k or 8m; got %r" % text
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("memory budget must be >= 0")
    return value


def _checked(convert, valid, expected: str):
    """An argparse ``type=`` that converts, then range-checks, so a bad
    number is a usage error rather than a traceback or a silent slice."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(
                "expected %s; got %r" % (expected, text)
            )
        return value
    return parse


#: ``--scale``: nan fails both comparisons.
_parse_scale = _checked(float, lambda v: 0 < v < math.inf,
                        "a finite scale factor > 0")
_parse_count = _checked(int, lambda v: v >= 0, "a whole number >= 0")
#: ``--prom-interval``/``--interval``: a zero wait spins the loop it
#: paces, and ``time.sleep`` rejects a negative one.
_parse_interval = _checked(float, lambda v: 0 < v < math.inf,
                           "a finite number of seconds > 0")


def _parse_quota(text: str):
    """Parse ``--quota TENANT=CONCURRENT[:STATE_BYTES]``.

    Either axis may be left empty: ``t1=2`` caps concurrency only,
    ``t1=:64m`` caps estimated state only, ``t1=2:64m`` caps both.
    """
    from repro.service import TenantQuota

    tenant, sep, caps = text.partition("=")
    tenant = tenant.strip()
    if not sep or not tenant:
        raise argparse.ArgumentTypeError(
            "expected TENANT=CONCURRENT[:STATE_BYTES]; got %r" % text
        )
    concurrent_raw, _, state_raw = caps.partition(":")
    try:
        max_concurrent = (
            int(concurrent_raw) if concurrent_raw.strip() else None
        )
        max_state = (
            float(_parse_nbytes(state_raw)) if state_raw.strip() else None
        )
        quota = TenantQuota(
            max_concurrent=max_concurrent, max_state_bytes=max_state,
        )
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(
            "bad quota %r: %s" % (text, exc)
        ) from None
    if max_concurrent is None and max_state is None:
        raise argparse.ArgumentTypeError(
            "quota %r caps neither axis; give CONCURRENT and/or "
            ":STATE_BYTES" % text
        )
    return tenant, quota


def _cmd_list(args) -> int:
    print("%-6s %-28s %-8s %-6s %s" % (
        "id", "title", "family", "skew", "notes",
    ))
    for qid in sorted(QUERIES):
        query = QUERIES[qid]
        notes = []
        if query.is_distributed:
            notes.append("remote:%s" % ",".join(query.remote_tables))
        if query.has_magic:
            notes.append("magic")
        print("%-6s %-28s %-8s %-6g %s" % (
            qid, query.title, query.family, query.skew, " ".join(notes),
        ))
    return 0


def _cmd_tables(args) -> int:
    catalog = cached_tpch(scale_factor=args.scale)
    print("TPC-H at scale factor %g:" % args.scale)
    total = 0
    for name in catalog.table_names():
        table = catalog.table(name)
        total += len(table)
        print("  %-10s %9d rows  %10d bytes (est.)"
              % (name, len(table), table.byte_size()))
    print("  %-10s %9d rows" % ("total", total))
    return 0


def _cmd_run(args) -> int:
    strategies = (
        list(STRATEGIES) if args.strategy == "all" else [args.strategy]
    )
    tracer = None
    if args.trace_out:
        if args.strategy == "all":
            print("error: --trace-out records one execution; pick a "
                  "single --strategy", file=sys.stderr)
            return 2
        from repro.obs.trace import Tracer
        tracer = Tracer()
    query = get_query(args.qid)
    if not query.has_magic and "magic" in strategies:
        strategies = [s for s in strategies if s != "magic"]
    if args.delayed and args.partitions:
        print("error: --delayed and --partitions are different arrival "
              "regimes; pick one", file=sys.stderr)
        return 2
    notes = ""
    if args.delayed:
        notes += ", delayed %s" % query.delayed_table
    if args.partitions:
        notes += ", %d partitions" % args.partitions
    if args.memory_budget is not None:
        notes += ", %d-byte memory budget" % args.memory_budget
    print("%s — %s (scale %g%s)" % (
        query.qid, query.title, args.scale, notes,
    ))
    print("%-14s %8s %12s %12s %9s %7s" % (
        "strategy", "rows", "time (vs)", "state (MB)", "pruned", "sets",
    ))
    storage_lines = []
    for strategy in strategies:
        record = run_workload_query(
            args.qid, strategy,
            scale_factor=args.scale, delayed=args.delayed,
            partitions=args.partitions,
            memory_budget=args.memory_budget,
            tracer=tracer,
        )
        s = record.summary
        print("%-14s %8d %12.4f %12.4f %9d %7d" % (
            strategy, s["result_rows"], s["virtual_seconds"],
            s["peak_state_mb"], s["tuples_pruned"], s["aip_sets_created"],
        ))
        if record.storage is not None:
            storage_lines.append(
                "-- %s: peak resident %d bytes (budget %d), "
                "%d spilled, %d evictions" % (
                    strategy,
                    record.storage["peak_resident_bytes"],
                    record.storage["budget"],
                    record.storage["spilled_bytes"],
                    record.storage["evictions"],
                )
            )
    for line in storage_lines:
        print(line)
    if tracer is not None:
        tracer.write_chrome(args.trace_out)
        print("-- trace: %d events written to %s"
              % (len(tracer), args.trace_out))
    return 0


def _cmd_sql(args) -> int:
    from repro.common.errors import ReproError
    from repro.exec.context import ExecutionContext
    from repro.exec.engine import execute_plan
    from repro.sql import sql_to_plan

    catalog = cached_tpch(scale_factor=args.scale)
    try:
        plan = sql_to_plan(catalog, args.query)
        if args.explain:
            print(explain(plan, catalog))
            return 0
        from repro.harness.strategies import make_strategy
        ctx = ExecutionContext(catalog, strategy=make_strategy(args.strategy))
        result = execute_plan(plan, ctx)
    except ReproError as exc:  # malformed SQL, unknown names
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for row in result.sorted_rows()[: args.limit]:
        print("  ".join(str(v) for v in row))
    m = result.metrics
    print("-- %d rows; %.4f virtual s; %.3f MB peak state; %d pruned"
          % (len(result), m.clock, m.peak_state_bytes / 1e6, m.total_pruned))
    return 0


def _make_service(args, skew: float = 0.0, tracer=None):
    from repro.service import QueryService, ServiceConfig

    catalog = cached_tpch(scale_factor=args.scale, skew=skew)
    budget = None
    if args.budget_mb is not None:
        budget = args.budget_mb * 1e6
    catalog_spec = None
    if args.parallel:
        # Workers rebuild the same deterministic catalog from its
        # parameters instead of unpickling the table data.
        from repro.parallel import CatalogSpec
        catalog_spec = CatalogSpec.tpch(scale_factor=args.scale, skew=skew)
    config = ServiceConfig(
        strategy=args.strategy,
        scheduler=args.scheduler,
        memory_budget_bytes=budget,
        max_concurrent=args.max_concurrent,
        result_cache=not args.no_result_cache,
        memory_budget=args.memory_budget,
        tracer=tracer,
        parallel=args.parallel,
        catalog_spec=catalog_spec,
        slo_seconds=args.slo_seconds,
        quotas=dict(getattr(args, "quota", None) or []),
        slow_query_ms=getattr(args, "slow_query_ms", None),
        event_log=getattr(args, "event_log", None),
    )
    return QueryService(catalog, config)


def _cmd_workload(args) -> int:
    from repro.service.workload import (
        WorkloadItem, parse_inline, parse_workload,
    )

    if os.path.isfile(args.stream):
        with open(args.stream) as fh:
            base_items = parse_workload(fh.read())
    else:
        base_items = parse_inline(args.stream)
        if (
            base_items and " " not in args.stream
            and base_items[0].kind == "sql"
        ):
            # A space-free argument that is not a workload-id list
            # cannot be SQL either — it is a mistyped script path or
            # query id; don't mask that as a SQL syntax error.
            print("error: no such workload script or query id: %s"
                  % args.stream, file=sys.stderr)
            return 2

    # Each repetition's arrivals shift by the stream's span; a stream
    # with no explicit arrivals repeats as a concurrent load multiple.
    span = max((item.arrival for item in base_items), default=0.0)
    items = [
        WorkloadItem(item.kind, item.text, item.arrival + k * span,
                     item.strategy, item.label, tenant=item.tenant)
        for k in range(args.repeat) for item in base_items
    ]
    if not items:
        print("error: empty workload stream", file=sys.stderr)
        return 2

    # The skewed variants (Q1B/Q2B/Q3B) run on Zipf data; honour that,
    # but one catalog serves the whole stream, so skews must agree.
    skews = {
        get_query(item.text).skew for item in items if item.kind == "qid"
    }
    if len(skews) > 1:
        print("error: stream mixes data skews %s; one catalog serves the "
              "whole stream" % sorted(skews), file=sys.stderr)
        return 2
    skew = skews.pop() if skews else 0.0
    if skew and any(item.kind == "sql" for item in items):
        print("warning: SQL items run on the Zipf-%g catalog selected by "
              "the stream's workload ids" % skew, file=sys.stderr)

    from repro.common.errors import ReproError
    tracer = None
    if args.trace_out:
        from repro.obs.trace import Tracer
        tracer = Tracer()
    # The service is a context manager owning its spill dir and worker
    # pool; every exit path — errors included — releases them.
    try:
        with _make_service(args, skew=skew, tracer=tracer) as service:
            report = service.run_workload(items)
            print("workload of %d queries (strategy %s, scheduler %s)" % (
                len(items), args.strategy, service.scheduler.describe(),
            ))
            print(report.render())
            if tracer is not None:
                tracer.write_chrome(args.trace_out)
                print("-- trace: %d events written to %s"
                      % (len(tracer), args.trace_out))
            if args.metrics_out:
                import json

                payload = {
                    "registry": service.registry.snapshot(),
                    # The last ``profiles.RETENTION`` queries, each
                    # with its est-vs-actual operator table.
                    "profiles": [
                        profile.as_dict()
                        for profile in service.profiles.last()
                    ],
                    "summary": report.summary(),
                }
                with open(args.metrics_out, "w") as fh:
                    json.dump(payload, fh, indent=1, sort_keys=True)
                    fh.write("\n")
                print("-- metrics: %d query profiles written to %s"
                      % (len(payload["profiles"]), args.metrics_out))
    except (ReproError, ValueError) as exc:
        # ValueError: bad strategy/scheduler names from stream
        # overrides, or out-of-range service options.
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args) -> int:
    """The front door: the socket server."""
    try:
        service = _make_service(args)
    except ValueError as exc:  # out-of-range service options
        print("error: %s" % exc, file=sys.stderr)
        return 2
    # The catalog and the service live as long as the process: move
    # them out of the collector's generations, so its passes scan only
    # what queries allocate.
    gc.freeze()
    from repro.net.protocol import PROTOCOL_VERSION
    from repro.net.server import ReproServer

    # The server owns the service: leaving the with-block — clean
    # shutdown frame, Ctrl-C, or a crash — closes spill dirs and pools.
    with ReproServer(service, host=args.host, port=args.port,
                     prom_out=args.prom_out,
                     prom_interval_s=args.prom_interval) as server:
        print("repro server listening on %s:%d (protocol v%d) — "
              "repro.connect(port=%d), or a shutdown frame, to talk"
              % (server.host, server.port, PROTOCOL_VERSION, server.port))
        sys.stdout.flush()
        try:
            server.wait()
        except KeyboardInterrupt:
            pass
    print("-- server stopped after %d queries; %.4f virtual s served"
          % (service.served_queries, service.clock))
    return 0


def _connect_admin(args):
    from repro.client import connect

    return connect(host=args.host, port=args.port, tenant=args.tenant)


def _cmd_stats(args) -> int:
    """One-shot introspection of a running server."""
    import json

    from repro.common.errors import ReproError

    try:
        with _connect_admin(args) as client:
            if args.prom:
                sys.stdout.write(client.prometheus())
            else:
                json.dump(client.stats(), sys.stdout,
                          indent=1, sort_keys=True)
                sys.stdout.write("\n")
    except (OSError, ReproError) as exc:
        print("error: cannot reach %s:%d: %s"
              % (args.host, args.port, exc), file=sys.stderr)
        return 2
    return 0


def _top_screen(health, stats, queries) -> str:
    """Render one ``repro top`` refresh from the admin payloads."""
    registry = stats.get("registry", {})
    server = stats.get("server", {})
    service = stats.get("service", {})

    def counter(name):
        metric = registry.get(name) or {}
        return int(metric.get("value", 0))

    def quantile(name, q):
        return (registry.get(name) or {}).get(q)

    lines = [
        "repro top — %s  uptime %.0fs  conns %d  inflight %d  "
        "queue %d" % (
            health.get("status", "?"),
            server.get("uptime_wall_s", 0.0),
            server.get("connections", 0),
            server.get("inflight", 0),
            server.get("queue_depth", 0),
        ),
        "queries: %d served  %d cached  %d shed  %d slow  |  "
        "batches %d  clock %.3f vs" % (
            server.get("served_queries", 0),
            counter("cache.result.hits"),
            counter("admission.shed") + counter("slo.shed")
            + counter("quota.shed"),
            counter("queries.slow"),
            service.get("batches_run", 0),
            service.get("clock", 0.0),
        ),
    ]
    latency = registry.get("query.latency_s") or {}
    if latency.get("count"):
        parts = []
        for q in ("p50", "p95", "p99"):
            value = quantile("query.latency_s", q)
            if value is not None:
                parts.append("%s %.4f" % (q, value))
        lines.append("latency (vs): %s  over %d queries"
                     % ("  ".join(parts) or "n/a", latency["count"]))
    lines.append(
        "state: peak %.3f MB  profiles %d kept/%d evicted" % (
            service.get("peak_state_bytes", 0) / 1e6,
            service.get("profiles_retained", 0),
            service.get("profiles_evicted", 0),
        )
    )
    lines.append("")
    lines.append("%-5s %-12s %-12s %-10s %9s %9s %10s %6s" % (
        "qid", "tenant", "label", "phase", "wall (s)", "virt (s)",
        "est MB", "wkr",
    ))
    if not queries:
        lines.append("  (no queries in flight)")
    for row in queries:
        estimate = row.get("state_estimate_bytes")
        lines.append("%-5s %-12s %-12s %-10s %9.3f %9.4f %10s %6s" % (
            row.get("qid", "?"),
            (row.get("tenant") or "-")[:12],
            (row.get("label") or "-")[:12],
            row.get("phase", "?"),
            row.get("elapsed_wall_s") or 0.0,
            row.get("virtual_elapsed_s") or 0.0,
            "%.3f" % (estimate / 1e6) if estimate is not None else "-",
            row.get("worker") if row.get("worker") is not None else "-",
        ))
    return "\n".join(lines)


def _cmd_top(args) -> int:
    """A live text dashboard: poll stats + proclist, redraw."""
    import time

    from repro.common.errors import ReproError

    refreshes = 0
    try:
        with _connect_admin(args) as client:
            while True:
                screen = _top_screen(
                    client.health(), client.stats(), client.proclist(),
                )
                if args.plain:
                    sys.stdout.write(screen + "\n--\n")
                else:
                    # Home the cursor and clear below: a flicker-free
                    # redraw that leaves scrollback alone.
                    sys.stdout.write("\x1b[H\x1b[J" + screen + "\n")
                sys.stdout.flush()
                refreshes += 1
                if args.iterations is not None \
                        and refreshes >= args.iterations:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, ReproError) as exc:
        print("error: cannot reach %s:%d: %s"
              % (args.host, args.port, exc), file=sys.stderr)
        return 2


def _cmd_explain(args) -> int:
    from repro.harness.strategies import uses_magic_plan

    query = get_query(args.qid)
    catalog = cached_tpch(scale_factor=args.scale, skew=query.skew)
    use_magic = args.magic or (args.analyze and uses_magic_plan(args.strategy))
    try:
        plan = query.build(catalog, use_magic)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if not args.analyze:
        print(explain(plan, catalog))
        return 0
    from repro.obs.analyze import explain_analyze
    from repro.obs.trace import Tracer

    tracer = Tracer() if args.trace_out else None
    report = explain_analyze(
        plan, catalog, strategy=args.strategy, tracer=tracer,
    )
    print("%s — %s (scale %g)" % (query.qid, query.title, args.scale))
    print(report.render())
    if tracer is not None:
        tracer.write_chrome(args.trace_out)
        print("-- trace: %d events written to %s"
              % (len(tracer), args.trace_out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sideways Information Passing reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list Table I workload queries")

    p_tables = sub.add_parser("tables", help="show generated table sizes")
    p_tables.add_argument("--scale", type=_parse_scale, default=0.01)

    p_run = sub.add_parser("run", help="run one workload query")
    p_run.add_argument("qid", help="query id, e.g. Q1A")
    p_run.add_argument(
        "--strategy", default="all",
        choices=list(STRATEGIES) + ["all"],
    )
    p_run.add_argument("--scale", type=_parse_scale, default=0.01)
    p_run.add_argument("--delayed", action="store_true",
                       help="delay the query's large input (Section VI-B)")
    p_run.add_argument("--partitions", type=_parse_count, default=0,
                       help="hash partition the query's big relation "
                            "across N remote sites, streamed in "
                            "parallel on the virtual clock")
    p_run.add_argument("--memory-budget", type=_parse_nbytes, default=None,
                       metavar="BYTES",
                       help="enforced engine state budget in bytes "
                            "(k/m/g suffixes ok): scans stream "
                            "buffer-pool pages and stateful operators "
                            "spill to disk under pressure")
    p_run.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record a Chrome-trace/Perfetto JSON timeline "
                            "of the execution (requires one --strategy)")

    p_explain = sub.add_parser("explain", help="show a plan with estimates")
    p_explain.add_argument("qid")
    p_explain.add_argument("--scale", type=_parse_scale, default=0.01)
    p_explain.add_argument("--magic", action="store_true",
                           help="explain the magic-sets plan")
    p_explain.add_argument("--analyze", action="store_true",
                           help="execute the plan and annotate every "
                                "operator with estimated vs actual rows, "
                                "virtual ticks, peak state and prunes")
    p_explain.add_argument("--strategy", default="baseline",
                           choices=list(STRATEGIES),
                           help="execution strategy for --analyze "
                                "(magic implies the magic-sets plan)")
    p_explain.add_argument("--trace-out", default=None, metavar="PATH",
                           help="with --analyze, also record a "
                                "Chrome-trace JSON timeline")

    p_sql = sub.add_parser("sql", help="run a SQL query over generated data")
    p_sql.add_argument("query", help="SQL text (Table I dialect)")
    p_sql.add_argument("--scale", type=_parse_scale, default=0.01)
    p_sql.add_argument(
        "--strategy", default="baseline",
        choices=["baseline", "feedforward", "costbased"],
    )
    p_sql.add_argument("--limit", type=_parse_count, default=20,
                       help="max rows to print")
    p_sql.add_argument("--explain", action="store_true",
                       help="show the bound plan instead of running")

    def add_service_options(p):
        from repro.service.schedulers import SCHEDULERS
        p.add_argument("--scale", type=_parse_scale, default=0.01)
        p.add_argument("--strategy", default="feedforward",
                       choices=list(STRATEGIES))
        p.add_argument("--scheduler", default="fifo",
                       choices=list(SCHEDULERS))
        p.add_argument("--budget-mb", type=float, default=None,
                       help="admission-control intermediate-state "
                            "budget estimate (MB; default unbounded)")
        p.add_argument("--memory-budget", type=_parse_nbytes, default=None,
                       metavar="BYTES",
                       help="enforced engine state budget in bytes "
                            "(k/m/g suffixes ok); the memory governor "
                            "spills operator state past it")
        p.add_argument("--max-concurrent", type=int, default=4,
                       help="max queries per concurrent batch")
        p.add_argument("--no-aip-cache", action="store_true",
                       help="accepted and ignored: AIP sets never "
                            "outlive their query")
        p.add_argument("--no-result-cache", action="store_true",
                       help="disable the result cache")
        p.add_argument("--parallel", type=int, default=None, metavar="N",
                       help="run each admitted query on one of N real "
                            "worker processes (wall-clock concurrency)")
        p.add_argument("--slo", type=float, default=None, metavar="SECONDS",
                       dest="slo_seconds",
                       help="latency objective in virtual seconds: shed "
                            "queries whose projected latency exceeds it")
        p.add_argument("--quota", type=_parse_quota, action="append",
                       default=None, metavar="TENANT=CONC[:BYTES]",
                       help="hard per-tenant cap, repeatable: concurrent "
                            "queries and/or estimated state bytes "
                            "(k/m/g suffixes ok); over-quota queries "
                            "are shed with a retry hint")
        p.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS",
                       help="slow-query threshold in milliseconds of "
                            "virtual latency: completed queries at or "
                            "past it are counted and logged with their "
                            "full profile")
        p.add_argument("--event-log", default=None, metavar="PATH",
                       help="append lifecycle events (admit/shed/spill/"
                            "crash/slow_query/batch_complete) as JSON "
                            "lines to PATH, rotating by size")

    p_workload = sub.add_parser(
        "workload",
        help="replay a scripted query stream through the service layer",
    )
    p_workload.add_argument(
        "stream",
        help="workload script path, inline ids like 'Q2A*3,Q1A', or SQL",
    )
    add_service_options(p_workload)
    p_workload.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record a Chrome-trace/Perfetto JSON timeline of the whole "
             "service run (all batches on one virtual timeline)",
    )
    p_workload.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the service metrics registry, the retained "
             "query profiles (operator tables) and report summary "
             "as JSON",
    )
    p_workload.add_argument(
        "--repeat", type=int, default=1,
        help="replay the stream this many times (each repetition's "
             "arrivals shift by the stream's span; with no @arrivals "
             "the copies arrive together as a load multiple)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve the query service over a socket",
    )
    add_service_options(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="listen address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=7734,
                         help="listen port; 0 picks an ephemeral port "
                              "(default 7734)")
    p_serve.add_argument("--prom-out", default=None, metavar="PATH",
                         help="write a Prometheus text-format metrics "
                              "snapshot to PATH periodically (and once "
                              "at shutdown) for a node-exporter-style "
                              "textfile collector")
    p_serve.add_argument("--prom-interval", type=_parse_interval,
                         default=5.0, metavar="SECONDS",
                         help="seconds between --prom-out snapshots "
                              "(default 5)")

    def add_admin_options(p):
        p.add_argument("--host", default="127.0.0.1",
                       help="server address (default 127.0.0.1)")
        p.add_argument("--port", type=int, default=7734,
                       help="server port (default 7734)")
        p.add_argument("--tenant", default=None,
                       help="tenant name to identify as")

    p_stats = sub.add_parser(
        "stats",
        help="print a running server's stats (JSON or Prometheus text)",
    )
    add_admin_options(p_stats)
    p_stats.add_argument("--prom", action="store_true",
                         help="print the Prometheus text-format page "
                              "instead of the JSON snapshot")

    p_top = sub.add_parser(
        "top",
        help="live dashboard over a running server (stats + proclist)",
    )
    add_admin_options(p_top)
    p_top.add_argument("--interval", type=_parse_interval, default=2.0,
                       metavar="SECONDS",
                       help="seconds between refreshes (default 2)")
    p_top.add_argument("--iterations", type=int, default=None, metavar="N",
                       help="stop after N refreshes (default: run until "
                            "interrupted)")
    p_top.add_argument("--plain", action="store_true",
                       help="print each refresh as a plain block instead "
                            "of redrawing the screen (for logs/CI)")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "tables": _cmd_tables,
        "run": _cmd_run,
        "explain": _cmd_explain,
        "sql": _cmd_sql,
        "workload": _cmd_workload,
        "serve": _cmd_serve,
        "stats": _cmd_stats,
        "top": _cmd_top,
    }
    try:
        return handlers[args.command](args)
    except KeyError as exc:  # unknown query id from get_query
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
