"""Front-door stress: hundreds of concurrent socket clients, gated tails.

The socket server's claim is that many concurrent clients can share the
one batch-sequential service without the front door itself becoming the
bottleneck — handler threads only do socket I/O, the dispatcher group-
commits whatever arrived during the previous batch, and a slow consumer
blocks nobody but itself.  This bench holds that claim to numbers:

* **stress** — N client threads (a barrier guarantees all N are
  connected at once), each running several reconnect *sessions*
  (connection churn) of a per-tenant query mix, plus a band of slow
  consumers that sleep between frame reads.  The service runs with the
  full telemetry plane on (profile ring, slow-query threshold, event
  log), and one extra connection polls the ``stats``/``proclist``/
  ``health`` admin frames throughout — introspection must answer under
  saturation without perturbing the tails.  Per-query wall-clock
  latency is collected across every thread; the run exports requests
  per second and inverse p50/p99 so the CI gate fails when the tails
  regress (the committed baseline predates the telemetry plane, so the
  gate is also the telemetry-overhead budget).
* **equivalence** — the same query × strategy matrix through a fresh
  socket server and a fresh :class:`repro.client.InProcessClient`;
  every result payload must match bit-for-bit.

Standalone (the CI regression gate)::

    PYTHONPATH=src python benchmarks/bench_frontdoor.py --smoke --json out.json

Wall-clock numbers on shared runners are noisy, so the JSON carries a
wide per-benchmark tolerance; the hard assertions (connection floor,
zero failures, bit-identity) are exact.
"""

import argparse
import os
import sys
import tempfile
import threading
import time

try:
    from benchmarks.figlib import write_bench_json
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from figlib import write_bench_json

from repro.client import Client, InProcessClient
from repro.data.tpch import cached_tpch
from repro.net.server import ReproServer
from repro.obs.registry import percentile
from repro.service import ServiceConfig
from repro.service.service import QueryService

#: Stress runs at a small scale: the point is front-door concurrency,
#: not engine work, and the result cache keeps queries steady-state.
SCALE_FACTOR = 0.002

#: Per-tenant query mixes; threads cycle their tenant's mix.
TENANT_MIXES = {
    "alpha": ("Q1A", "Q2A"),
    "beta": ("Q2A", "Q3A"),
    "gamma": ("select count(*) as n from part", "Q1A"),
    "delta": ("Q3A",),
}

#: The socket-vs-in-process equivalence matrix.
MATRIX_QUERIES = ("Q1A", "Q2A", "Q3A", "select count(*) as n from part")
MATRIX_STRATEGIES = ("feedforward", "costbased")


class SlowClient(Client):
    """A consumer that dawdles between frames; its backpressure must
    stay on its own connection."""

    def __init__(self, *args, frame_delay_s: float = 0.005, **kwargs):
        self.frame_delay_s = frame_delay_s
        super().__init__(*args, **kwargs)

    def _recv(self):
        time.sleep(self.frame_delay_s)
        return super()._recv()


def _client_thread(port, tenant, mix, sessions, queries_per_session,
                   barrier, slow, latencies, failures, lock):
    local = []
    try:
        for session in range(sessions):
            cls = SlowClient if slow else Client
            with cls(port=port, tenant=tenant) as client:
                if session == 0:
                    # Everyone holds their first connection until all
                    # threads are connected: the concurrency floor.
                    barrier.wait(timeout=120)
                for i in range(queries_per_session):
                    text = mix[i % len(mix)]
                    started = time.monotonic()
                    result = client.query(text)
                    local.append(time.monotonic() - started)
                    if not result.ok:
                        raise AssertionError(
                            "query %r came back %s (%s)"
                            % (text, result.status, result.reason)
                        )
    except Exception as exc:
        with lock:
            failures.append("%s: %s" % (tenant, exc))
    finally:
        with lock:
            latencies.extend(local)


def _admin_poller(port, stop, counts):
    """Hammer the admin frames from one more connection for the whole
    stress window: introspection must answer while the front door is
    saturated, and it must never wedge the dispatcher."""
    try:
        with Client(port=port, tenant="admin") as admin:
            while not stop.is_set():
                stats = admin.stats()
                admin.proclist()
                health = admin.health()
                counts["polls"] += 1
                if health.get("status") not in ("ok", "stopping"):
                    counts["errors"] += 1
                if "registry" not in stats:
                    counts["errors"] += 1
                time.sleep(0.02)
    except Exception as exc:
        counts["errors"] += 1
        counts["last_error"] = str(exc)


def _run_stress(clients, sessions, queries_per_session, slow_consumers):
    catalog = cached_tpch(scale_factor=SCALE_FACTOR)
    # Full telemetry on: the rps/p50/p99 gates below therefore hold the
    # profile ring, slow-query log and event log to <tolerance overhead.
    event_log_fd, event_log_path = tempfile.mkstemp(
        prefix="frontdoor-events-", suffix=".jsonl",
    )
    os.close(event_log_fd)
    service = QueryService(catalog, ServiceConfig(
        strategy="feedforward",
        event_log=event_log_path,
        slow_query_ms=30_000.0,  # virtual ms; counts only pathological runs
        profile_retention=256,
    ))
    tenants = sorted(TENANT_MIXES)
    latencies, failures = [], []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)
    admin_counts = {"polls": 0, "errors": 0}
    admin_stop = threading.Event()
    try:
        with ReproServer(service, max_batch=256) as server:
            # Warm the result cache so the stress phase measures the
            # front door at steady state, not four cold executions.
            with InProcessClient(service=service) as warm:
                for mix in TENANT_MIXES.values():
                    for text in mix:
                        warm.query(text)
            admin_thread = threading.Thread(
                target=_admin_poller,
                args=(server.port, admin_stop, admin_counts),
                daemon=True,
            )
            threads = []
            for i in range(clients):
                tenant = tenants[i % len(tenants)]
                threads.append(threading.Thread(
                    target=_client_thread,
                    args=(server.port, tenant, TENANT_MIXES[tenant],
                          sessions, queries_per_session, barrier,
                          i < slow_consumers, latencies, failures, lock),
                    daemon=True,
                ))
            started = time.monotonic()
            admin_thread.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
            elapsed = time.monotonic() - started
            admin_stop.set()
            admin_thread.join(timeout=30)
            peak_connections = server.registry.gauge(
                "net.connections"
            ).max_value or 0
            inflight_peak = server.registry.gauge(
                "net.inflight"
            ).max_value or 0
            served = service.served_queries
            profiles_retained = len(service.profiles)
            events_written = service.eventlog.events_written
    finally:
        admin_stop.set()
        try:
            os.unlink(event_log_path)
            os.unlink(event_log_path + ".1")
        except OSError:
            pass
    return {
        "latencies": sorted(latencies),
        "failures": failures,
        "elapsed_s": elapsed,
        "peak_connections": int(peak_connections),
        "peak_inflight": int(inflight_peak),
        "served": served,
        "expected": clients * sessions * queries_per_session,
        "admin_polls": admin_counts["polls"],
        "admin_errors": admin_counts["errors"],
        "admin_last_error": admin_counts.get("last_error"),
        "profiles_retained": profiles_retained,
        "events_written": events_written,
    }


def _run_equivalence():
    """The full matrix through both transports; returns mismatches."""
    catalog = cached_tpch(scale_factor=SCALE_FACTOR)
    mismatches = []
    socket_service = QueryService(catalog, ServiceConfig())
    with ReproServer(socket_service) as server, \
            Client(port=server.port, tenant="matrix") as remote, \
            InProcessClient(catalog, ServiceConfig(),
                            tenant="matrix") as local:
        for strategy in MATRIX_STRATEGIES:
            for text in MATRIX_QUERIES:
                over_wire = remote.query(text, strategy=strategy)
                in_proc = local.query(text, strategy=strategy)
                if over_wire.to_payload() != in_proc.to_payload():
                    mismatches.append((strategy, text))
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI configuration: fewer sessions/queries "
                             "per client (the 200-connection floor and "
                             "the equivalence matrix stay identical)")
    parser.add_argument("--clients", type=int, default=None,
                        help="override the concurrent client count")
    parser.add_argument("--json", metavar="PATH",
                        help="write rps and inverse p50/p99 wall latency "
                             "for benchmarks/check_regression.py")
    args = parser.parse_args(argv)

    clients = args.clients or (208 if args.smoke else 320)
    sessions = 2 if args.smoke else 3
    per_session = 2 if args.smoke else 3
    slow = max(4, clients // 32)

    mismatches = _run_equivalence()
    print("equivalence: %d strategy x query cells, %d mismatches" % (
        len(MATRIX_STRATEGIES) * len(MATRIX_QUERIES), len(mismatches),
    ))
    for strategy, text in mismatches:
        print("  MISMATCH %s / %s" % (strategy, text))

    stats = _run_stress(clients, sessions, per_session, slow)
    lats = stats["latencies"]
    p50 = percentile(lats, 0.50) if lats else float("inf")
    p99 = percentile(lats, 0.99) if lats else float("inf")
    rps = len(lats) / stats["elapsed_s"] if stats["elapsed_s"] else 0.0
    print("stress: %d clients x %d sessions x %d queries (%d slow "
          "consumers), churned %d connections" % (
              clients, sessions, per_session, slow, clients * sessions,
          ))
    print("  %d/%d queries in %.2fs wall (%.0f q/s); peak %d connections, "
          "%d inflight" % (
              len(lats), stats["expected"], stats["elapsed_s"], rps,
              stats["peak_connections"], stats["peak_inflight"],
          ))
    print("  wall latency p50 %.1f ms, p99 %.1f ms"
          % (p50 * 1e3, p99 * 1e3))
    print("  telemetry: %d admin polls answered mid-stress (%d errors); "
          "%d profiles retained, %d events logged" % (
              stats["admin_polls"], stats["admin_errors"],
              stats["profiles_retained"], stats["events_written"],
          ))
    for failure in stats["failures"][:5]:
        print("  FAILURE %s" % failure)

    if args.json:
        write_bench_json(
            args.json, "frontdoor",
            config={"clients": clients, "sessions": sessions,
                    "queries_per_session": per_session,
                    "slow_consumers": slow, "scale": SCALE_FACTOR,
                    "smoke": bool(args.smoke)},
            metrics={
                "rps": rps,
                "inv_p50_s": 1.0 / max(p50, 1e-9),
                "inv_p99_s": 1.0 / max(p99, 1e-9),
            },
            # Wall-clock tails under 200+ threads on shared CI runners:
            # the gate catches collapses, not jitter.
            tolerance=0.85,
        )

    ok = True
    if mismatches:
        print("FAIL: socket and in-process results diverged")
        ok = False
    if stats["failures"]:
        print("FAIL: %d client threads errored" % len(stats["failures"]))
        ok = False
    if stats["peak_connections"] < clients:
        print("FAIL: peak connections %d never reached the %d-client "
              "floor" % (stats["peak_connections"], clients))
        ok = False
    if len(lats) != stats["expected"]:
        print("FAIL: %d of %d queries completed"
              % (len(lats), stats["expected"]))
        ok = False
    if stats["admin_polls"] < 1 or stats["admin_errors"]:
        print("FAIL: admin introspection under load: %d polls, %d errors"
              " (%s)" % (stats["admin_polls"], stats["admin_errors"],
                         stats["admin_last_error"]))
        ok = False
    if stats["events_written"] < 1:
        print("FAIL: the event log recorded nothing for %d queries"
              % stats["served"])
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
