"""The measurement spine: one command, four workloads, absolute numbers.

    python3 benchmarks/spine/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out DIR] [--repeat N] [--smoke]

For each workload the harness starts the real front door (``repro serve
--port 0``, one child process), drives it over loopback TCP from this
one load-generator process (1 or 2 closed-loop connections), checks
every reply against a reference, prints every metric by name with its
unit, and tears the child down.  ``--trace 0`` is the measured window
(end-to-end metrics, tracing off), ``--trace 1`` the traced pass
(per-layer metrics); without ``--trace`` both run against one child.

With ``--workload`` and ``--trace`` the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the contract
the benchmark driver reads (see BENCHMARK.json at the repo root).

See README.md in this directory for the layer map and the regime.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import layers
import reference
from procs import Reaper, ServerChild, leaked_processes, pin_harness
from spans import SpanLog
from stats import percentile, pick_tail
from workloads import BY_NAME, WORKLOADS, Op, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 12

#: Hard wall deadline per workload; past it the child is killed and
#: the workload reported failed.
WORKLOAD_DEADLINE_S = 90.0

#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

SMOKE_SCALE = 0.0005
SMOKE_SECONDS = 0.2

#: name -> unit, in print order.  All ten of the first two blocks are
#: end-to-end metrics; BENCHMARK.json can list only the first six as
#: ``end_to_end`` — three of the others are 0 on some workload, which
#: its contract bars, and ``shutdown_s`` (10 s of idle waiting today)
#: is taken in the traced pass, where the wait overlaps the
#: re-enactment — so those four lead its ``per_layer`` list.
END_TO_END = {
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "result_rows_per_s": "1/s",
    "server_rss_mb": "mb",
    "setup_s": "s",
}
ALSO_END_TO_END = {
    "failed_share": "ratio",
    "virtual_s": "s",
    "peak_state_mb": "mb",
    "shutdown_s": "s",
}
PER_LAYER = {
    "net.server.residual_us": "us",
    "net.server.connect_us": "us",
    "net.server.batch_size_mean": "count",
    "net.protocol.request_codec_us": "us",
    "net.protocol.response_encode_us": "us",
    "net.protocol.response_decode_us": "us",
    "net.protocol.response_bytes": "bytes",
    "net.protocol.response_frames": "count",
    "service.result.encode_us": "us",
    "client.decode_us": "us",
    "sql.parse_us": "us",
    "sql.bind_us": "us",
    "workloads.build_us": "us",
    "optimizer.estimate_us": "us",
    "service.signature_us": "us",
    "service.submit_us": "us",
    "service.run_us": "us",
    "service.self_us": "us",
    "service.result_cache.hit_rate": "ratio",
    "exec.translate_us": "us",
    "exec.engine_us": "us",
    "exec.engine_us_per_input_row": "us",
    "exec.pages_pushed": "count",
    "exec.rows_per_page": "count",
    "aip.sets_created": "count",
    "aip.tuples_pruned": "count",
    "aip.virtual_speedup_ff": "ratio",
    "aip.virtual_speedup_cb": "ratio",
    "aip.wall_overhead_share": "ratio",
    "storage.spill_bytes": "bytes",
    "storage.spill_events": "count",
    "storage.governed_slowdown": "ratio",
    "data.generate_s": "s",
    "repro.import_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}
TRACED = {**ALSO_END_TO_END, **PER_LAYER}


@dataclass
class Sample:
    """One answered query of a socket pass."""

    op: Op
    conn: int
    cycle: int
    latency_s: float
    rows: int
    metrics: Dict


@dataclass
class Pass:
    """One closed-loop pass over the socket."""

    samples: List[Sample] = field(default_factory=list)
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    log: Optional[SpanLog] = None

    @property
    def failed(self) -> int:
        return self.attempted - len(self.samples)

    def latencies_ms(self) -> List[float]:
        return [s.latency_s * 1e3 for s in self.samples]

    def first_cycle(self) -> List[Sample]:
        return [s for s in self.samples if s.conn == 0 and s.cycle == 0]


def drive(port, workload, cycle, seed, seconds, expected, traced=False):
    """Run whole shuffled cycles on every connection until ``seconds``
    have passed (at least one cycle each); returns a :class:`Pass`.

    A ``traced`` pass records a root span per query on every *odd*
    cycle (and runs at least two), so traced and untraced queries are
    the same ops, interleaved in time: machine drift cancels out of
    ``trace.overhead_share``."""
    from repro.client import Client
    from repro.common.errors import ExecutionError

    result = Pass(log=SpanLog() if traced else None)
    min_cycles = 2 if traced else 1
    lock = threading.Lock()
    barrier = threading.Barrier(workload.connections)
    spans_of = {}
    bounds = []

    def connection(conn: int) -> None:
        rng = random.Random(seed * 1000 + conn)
        log = SpanLog() if traced else None
        samples, errors, attempted = [], [], 0
        started = ended = None
        try:
            with Client(port=port) as client:
                barrier.wait(30.0)
                started = time.perf_counter()
                deadline = started + seconds
                cycle_index = 0
                while cycle_index < min_cycles \
                        or time.perf_counter() < deadline:
                    for op in rng.sample(cycle, len(cycle)):
                        attempted += 1
                        qid = conn * 1_000_000 + attempted
                        root = (
                            log.span("socket.query", qid)
                            if cycle_index % 2 and traced else nullcontext()
                        )
                        begin = time.perf_counter()
                        try:
                            with root:
                                reply = client.query(
                                    op.text, strategy=op.strategy
                                )
                        except ExecutionError as exc:
                            # An error frame: this query failed, the
                            # session is still usable.
                            errors.append("%s: %s" % (op.text[:40], exc))
                            continue
                        latency = time.perf_counter() - begin
                        if not reply.ok:
                            errors.append("%s: %s (%s)" % (
                                op.text[:40], reply.status, reply.reason,
                            ))
                        elif not expected[op.text].matches(reply.rows):
                            errors.append(
                                "%s [%s]: rows differ from the reference"
                                % (op.text[:40], op.strategy)
                            )
                        else:
                            samples.append(Sample(
                                op, conn, cycle_index, latency,
                                len(reply.rows), reply.metrics,
                            ))
                    cycle_index += 1
                ended = time.perf_counter()
        except Exception:
            # Thread boundary: a dead socket (child killed at the
            # deadline) or a harness bug ends this connection; the
            # unanswered query counts as failed.
            errors.append(traceback.format_exc(limit=3))
            barrier.abort()
        with lock:
            result.samples.extend(samples)
            result.errors.extend(errors)
            result.attempted += attempted
            if started is not None:
                bounds.append((started, ended or time.perf_counter()))
            if log is not None:
                spans_of[conn] = log

    threads = [
        threading.Thread(target=connection, args=(conn,),
                         name="spine-client-%d" % conn, daemon=True)
        for conn in range(workload.connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if bounds:
        result.elapsed_s = (
            max(end for _, end in bounds) - min(start for start, _ in bounds)
        )
    for conn in sorted(spans_of):
        result.log.extend(spans_of[conn])
    if not result.attempted:
        result.attempted = 1  # the connection itself failed
    return result


class Harness:
    """State shared by every workload of one invocation."""

    def __init__(self, reaper: Reaper, out_dir: str, smoke: bool):
        self.reaper = reaper
        self.out_dir = out_dir
        self.smoke = smoke
        self.child_cpu = pin_harness()
        self.tmpdir = os.path.join(out_dir, "tmp")
        os.makedirs(self.tmpdir, exist_ok=True)
        # The harness's own spill files (re-enactment) go with --out too.
        tempfile.tempdir = self.tmpdir
        started = time.perf_counter()
        import repro  # noqa: F401  (timed: the child pays the same import)

        self.import_s = time.perf_counter() - started
        self._catalogs = {}

    def catalog(self, scale: float):
        """``(catalog, generate_s)``; generated (and timed) once."""
        if scale not in self._catalogs:
            from repro.data.tpch import cached_tpch

            started = time.perf_counter()
            catalog = cached_tpch(scale_factor=scale)
            self._catalogs[scale] = (catalog, time.perf_counter() - started)
        return self._catalogs[scale]

    def set_up(self, workload: Workload, scale: float, warmup) -> tuple:
        """Spawn a child, wait for ``health`` ok, run the warm-up ops;
        returns ``(child, setup_s)``."""
        from repro.client import Client

        started = time.perf_counter()
        child = ServerChild(
            self.reaper, SRC, workload.serve_args(scale), self.tmpdir,
            self.child_cpu,
        )
        try:
            with Client(port=child.port) as client:
                status = client.health()["status"]
                if status != "ok":
                    raise RuntimeError("server health is %r" % status)
                for op in warmup:
                    client.query(op.text, strategy=op.strategy).require()
        except BaseException:
            child.stop()
            raise
        return child, time.perf_counter() - started


def connect_us(port: int, repeats: int = 5) -> float:
    """Mean microseconds to open a session (TCP connect + hello)."""
    from repro.client import Client

    started = time.perf_counter()
    for _ in range(repeats):
        Client(port=port).close()
    return (time.perf_counter() - started) / repeats * 1e6


def traced_socket_pass(port, workload, cycle, seed, seconds, expected,
                       metrics) -> Pass:
    """The socket half of the traced pass, bracketed by two ``stats``
    snapshots."""
    from repro.client import Client

    metrics["net.server.connect_us"] = connect_us(port)
    with Client(port=port) as admin:
        before = admin.stats()
        traced = drive(port, workload, cycle, seed + 1, seconds, expected,
                       traced=True)
        after = admin.stats()
    metrics.update(layers.stats_delta(before, after))
    metrics["trace.overhead_share"] = overhead_share(traced.samples)
    return traced


def overhead_share(samples: List[Sample]) -> float:
    """Traced vs untraced socket p50, taken per op (a p50 over the
    whole mix jumps between op types) and then as the median op."""
    by_op: Dict[Op, tuple] = {}
    for sample in samples:
        by_op.setdefault(sample.op, ([], []))[sample.cycle % 2].append(
            sample.latency_s
        )
    ratios = [
        statistics.median(with_spans) / statistics.median(without)
        for without, with_spans in by_op.values() if without and with_spans
    ]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def reenacted_pass(harness, workload, catalog, cycle, warmup, seconds,
                   traced: Pass, metrics) -> None:
    """The in-process half of the traced pass; writes the trace file."""
    log = SpanLog()
    reenacted = layers.reenact(workload, catalog, cycle, warmup, seconds, log)
    socket_ms = traced.latencies_ms()
    metrics.update(layers.layer_metrics(
        log, reenacted,
        math.fsum(socket_ms) / len(socket_ms) * 1e3 if socket_ms else 0.0,
        workload.memory_budget,
    ))
    log.extend(traced.log)
    log.write(os.path.join(harness.out_dir, "trace_%s.json" % workload.name))


def run_workload(harness, workload, seed, seconds, measure, trace) -> Dict:
    """Run one workload against one child; returns its result record."""
    scale = SMOKE_SCALE if harness.smoke else workload.scale
    catalog, generate_s = harness.catalog(scale)
    cycle = workload.ops(seed)
    warmup = workload.warmup_ops(seed)
    expected = reference.expected_replies(catalog, [op.text for op in cycle])
    problems = reference.sqlite_mismatches(catalog, {
        text: reply for text, reply in expected.items()
        if text.startswith("select ")
    })
    metrics: Dict[str, float] = {
        "data.generate_s": generate_s, "repro.import_s": harness.import_s,
    }
    deadline_hit = threading.Event()

    def on_deadline() -> None:
        deadline_hit.set()
        harness.reaper.reap_all()

    watchdog = threading.Timer(WORKLOAD_DEADLINE_S, on_deadline)
    watchdog.daemon = True
    watchdog.start()
    window = traced = child = None
    try:
        child, first_setup_s = harness.set_up(workload, scale, warmup)
        if measure:
            window = drive(child.port, workload, cycle, seed, seconds,
                           expected)
        if trace:
            traced = traced_socket_pass(
                child.port, workload, cycle, seed, seconds / 4, expected,
                metrics,
            )
        metrics["server_rss_mb"] = child.rss_mb()
        # Only the traced pass waits out the graceful exit (10 s today):
        # the child idles in close() while the harness re-enacts.
        graceful = trace and not harness.smoke
        if graceful:
            child.begin_shutdown()
        else:
            stop_s = child.stop()
        setups = [first_setup_s]
        if measure and not harness.smoke:
            for _ in range(SETUP_SAMPLES - 1):
                extra, setup_s = harness.set_up(workload, scale, warmup)
                extra.stop()
                setups.append(setup_s)
        metrics["setup_s"] = statistics.median(setups)
        if trace:
            reenacted_pass(harness, workload, catalog, cycle, warmup,
                           seconds / 4, traced, metrics)
            metrics["shutdown_s"] = (
                child.finish_shutdown() if graceful else stop_s
            )
    except Exception:
        # Past the deadline the children were killed under us; whatever
        # broke then is the deadline's doing and is reported as such.
        if not deadline_hit.is_set():
            raise
    finally:
        watchdog.cancel()
        if child is not None:
            child.stop()

    passes = [p for p in (window, traced) if p is not None] \
        or [Pass(attempted=1)]  # died before any query was sent
    counted = passes[0]
    if window is not None:
        metrics.update(window_metrics(window, workload.tail))
    metrics.update(layers.socket_counts(counted.first_cycle()))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics["failed_share"] = failed / attempted
    for p in passes:
        problems.extend(p.errors)
    if deadline_hit.is_set():
        problems.append(
            "workload deadline of %.0f s hit; child killed"
            % WORKLOAD_DEADLINE_S
        )
    if not cycles_repeat(counted):
        problems.append("virtual_s differs between cycles of one pass")
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "scale": scale, "connections": workload.connections,
        "metrics": metrics, "problems": problems,
        "attempted": attempted, "failed": failed,
        "samples": len(counted.samples), "window_s": counted.elapsed_s,
        "tail_percentile": workload.tail,
        "tail_supported": pick_tail(len(counted.samples)),
        "correct": not problems and failed == 0,
    }


def window_metrics(window: Pass, tail: int) -> Dict[str, float]:
    latencies = window.latencies_ms()
    if not latencies:
        return dict.fromkeys(
            ("query_p50_ms", "query_tail_ms", "queries_per_s",
             "result_rows_per_s"), 0.0,
        )
    return {
        "query_p50_ms": percentile(latencies, 50),
        "query_tail_ms": percentile(latencies, tail),
        "queries_per_s": len(latencies) / window.elapsed_s,
        "result_rows_per_s": (
            sum(s.rows for s in window.samples) / window.elapsed_s
        ),
    }


def cycles_repeat(socket_pass: Pass) -> bool:
    """Whether every complete cycle's virtual-time sum is identical —
    the precondition for reporting ``virtual_s`` as an exact count."""
    sums = {}
    for sample in socket_pass.samples:
        sums.setdefault((sample.conn, sample.cycle), []).append(
            sample.metrics.get("virtual_seconds", 0.0)
        )
    return len({math.fsum(values) for values in sums.values()}) <= 1


def print_record(record: Dict, names: Dict[str, str]) -> None:
    print("== %s  seed=%d  scale=%g  connections=%d  closed loop" % (
        record["workload"], record["seed"], record["scale"],
        record["connections"],
    ))
    print("   samples=%d over %.2f s; tail=p%d (highest supported: %s); "
          "attempted=%d failed=%d" % (
              record["samples"], record["window_s"],
              record["tail_percentile"],
              "p%d" % record["tail_supported"]
              if record["tail_supported"] else "none",
              record["attempted"], record["failed"],
          ))
    for name, unit in names.items():
        if name in record["metrics"]:
            print("%-36s %16.6f %s" % (name, record["metrics"][name], unit))
    for problem in record["problems"]:
        print("   PROBLEM: %s" % problem.strip().replace("\n", "\n      "))


def contract_line(record: Dict, names: Dict[str, str], ok: bool) -> str:
    return json.dumps({
        "correct": ok,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in names.items()
        },
    })


def parse_args(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME), default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: measured window only; 1: traced pass "
                             "only; default: both against one child")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="keep traces and results.json here (default: "
                             "a temporary directory, removed on exit)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repeat the whole run with seeds N, N+1, ...")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale and windows, terminate() instead "
                             "of the graceful shutdown wait")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: %s holds no repro package; the spine measures the "
              "program built from this checkout's source" % SRC,
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    reaper = Reaper()
    reaper.install()
    out_dir = args.out
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix=".spine-out-", dir=ROOT)
    else:
        os.makedirs(out_dir, exist_ok=True)
    measure = args.trace in (None, 0)
    trace = args.trace in (None, 1)
    names = {}
    if measure:
        names.update(END_TO_END)
    if trace:
        names.update(TRACED)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    picked = [BY_NAME[args.workload]] if args.workload else list(WORKLOADS)
    records = []
    try:
        harness = Harness(reaper, out_dir, args.smoke)
        for repeat in range(args.repeat):
            for workload in picked:
                record = run_workload(
                    harness, workload, args.seed + repeat, seconds,
                    measure, trace,
                )
                records.append(record)
                print_record(record, names)
        if args.out is not None:
            with open(os.path.join(out_dir, "results.json"), "w") as fh:
                json.dump({"meta": meta(args), "runs": records}, fh,
                          indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        reaper.reap_all()
        if args.out is None:
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            shutil.rmtree(os.path.join(out_dir, "tmp"), ignore_errors=True)
    leaked = leaked_processes()
    print("leaked_processes %d" % len(leaked))
    ok = not leaked and all(record["correct"] for record in records)
    if args.workload and args.trace is not None and args.repeat == 1 \
            and all(name in records[0]["metrics"] for name in names):
        print(contract_line(records[0], names, ok))
    return 0 if ok else 1


def meta(args) -> Dict:
    return {
        "regime": "closed loop over loopback TCP, 1-2 connections, one "
                  "server child pinned to its own core, no worker pool",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
    }


if __name__ == "__main__":
    sys.exit(main())
