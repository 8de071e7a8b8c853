"""Socket server tests: equivalence, quotas, concurrency, shutdown."""

import gc
import io
import socket
import statistics
import struct
import threading
import time

import pytest

from repro.client import Client, InProcessClient, connect
from repro.common.errors import ExecutionError
from repro.data.tpch import cached_tpch
from repro.net.protocol import (
    PROTOCOL_VERSION, ROWS_MARKER, ROWS_PER_FRAME, SEND_BUFFER_BYTES,
    ProtocolError, encode_frame, hello_frame, read_frame,
)
from repro.net.server import ReproServer, _Request
from repro.service import ServiceConfig, TenantQuota
from repro.service.executor import BatchRun, QueryRun
from repro.service.service import MIN_RETRY_HINT_S, QueryService


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


COUNT_PART = "select count(*) as n from part"


def make_server(catalog, **config_kwargs):
    service = QueryService(catalog, ServiceConfig(**config_kwargs))
    return ReproServer(service).start()


class TestTransportEquivalence:
    """One QueryResult type, bit-identical over both transports."""

    MATRIX = [
        ("Q1A", "feedforward"),
        ("Q1A", "feedforward"),  # repeat: cached status must match too
        ("Q1A", "costbased"),
        ("Q2A", "feedforward"),
        ("Q2A", "costbased"),
        ("Q3A", "feedforward"),
        ("Q3A", "costbased"),
        (COUNT_PART, "baseline"),
        (COUNT_PART, "feedforward"),
        (COUNT_PART, "costbased"),
    ]

    def test_socket_matches_in_process(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port, tenant="t") as remote, \
                InProcessClient(catalog, ServiceConfig(),
                                tenant="t") as local:
            for text, strategy in self.MATRIX:
                over_wire = remote.query(text, strategy=strategy)
                in_proc = local.query(text, strategy=strategy)
                assert over_wire.to_payload() == in_proc.to_payload()
                assert over_wire == in_proc
                assert over_wire.status == in_proc.status
                assert over_wire.columns == in_proc.columns
                assert over_wire.rows == in_proc.rows  # tuples, not lists

    def test_errors_match_in_process(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port) as remote, \
                InProcessClient(catalog, ServiceConfig()) as local:
            for text in ("select nonsense(", "select x from nowhere"):
                with pytest.raises(ExecutionError) as over_wire:
                    remote.query(text)
                with pytest.raises(ExecutionError) as in_proc:
                    local.query(text)
                assert str(over_wire.value) == str(in_proc.value)

    def both_raise(self, remote, local, text, strategy=None):
        """Both transports refuse ``text`` with one exception type and
        text; returns the message."""
        with pytest.raises(ExecutionError) as over_wire:
            remote.query(text, strategy=strategy)
        with pytest.raises(ExecutionError) as in_proc:
            local.query(text, strategy=strategy)
        assert type(over_wire.value) is type(in_proc.value)
        assert str(over_wire.value) == str(in_proc.value)
        return str(in_proc.value)

    def test_submit_failures_match_in_process(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port) as remote, \
                InProcessClient(catalog, ServiceConfig()) as local:
            assert self.both_raise(remote, local, "select nonsense(")
            assert "warp" in self.both_raise(
                remote, local, "Q1A", strategy="warp",
            )
            assert "non-empty" in self.both_raise(remote, local, "  ")
            # The session survives each refusal, on both sides.
            assert remote.query("Q1A") == local.query("Q1A")

    def test_magic_without_a_variant_is_an_error_frame(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port) as remote, \
                InProcessClient(catalog, ServiceConfig()) as local:
            assert "Q4A has no magic-sets variant" in self.both_raise(
                remote, local, "Q4A", strategy="magic",
            )
            assert remote.query("Q1A", strategy="magic") == local.query(
                "Q1A", strategy="magic",
            )

    def test_sheds_match_in_process(self, catalog):
        config = dict(quotas={"capped": TenantQuota(max_state_bytes=1.0)})
        with make_server(catalog, **config) as server, \
                connect(port=server.port, tenant="capped") as remote, \
                InProcessClient(catalog, ServiceConfig(**config),
                                tenant="capped") as local:
            over_wire = remote.query("Q2A")
            in_proc = local.query("Q2A")
            assert over_wire == in_proc
            assert (in_proc.status, in_proc.reason) == ("shed", "quota:state")
            assert remote.last_shed_retry_s == local.last_shed_retry_s
            assert local.last_shed_retry_s >= MIN_RETRY_HINT_S

    def test_engine_failures_match_in_process(self, catalog, monkeypatch):
        class DeadWorkers:
            """A backend whose every query comes back an error entry."""
            slots = 1

            def execute(self, batch):
                return BatchRun([QueryRun(error="worker died") for _ in batch])

            def close(self):
                pass

        with make_server(catalog) as server, \
                connect(port=server.port) as remote, \
                InProcessClient(catalog, ServiceConfig()) as local:
            for service in (server.service, local.service):
                monkeypatch.setattr(service, "_backend", DeadWorkers())
            # An ``error``-status outcome...
            assert "worker died" in self.both_raise(remote, local, "Q1A")
            # ...and a run() that raises out of the service.
            def broken_run():
                raise RuntimeError("engine fault")

            for service in (server.service, local.service):
                monkeypatch.setattr(service, "run", broken_run)
            assert self.both_raise(remote, local, "Q1A") == (
                "service batch failed: engine fault"
            )

    def test_metrics_snapshot_travels(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port) as client:
            result = client.query("Q2A")
            assert result.metrics["virtual_seconds"] == result.latency
            assert "tuples_pruned" in result.metrics

    #: The spine's ``wide_scan`` statements, literals mid-range:
    #: int, float, date-string and status-letter columns, many chunks.
    WIDE_SCAN = [
        "select l_orderkey, l_partkey, l_suppkey, l_quantity, "
        "l_extendedprice, l_shipdate from lineitem "
        "where l_extendedprice < 34550.0",
        "select o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
        "o_orderdate from orders where o_totalprice > 2850.0",
        "select ps_partkey, ps_suppkey, ps_availqty, ps_supplycost "
        "from partsupp where ps_supplycost > 5.0",
    ]

    def test_wide_scan_rows_are_type_exact(self, catalog):
        # ``QueryResult.__eq__`` compares lists, where 1 == 1.0: an int
        # coming back as a float would pass it, so check value by value.
        with make_server(catalog) as server, \
                connect(port=server.port) as remote, \
                InProcessClient(catalog, ServiceConfig()) as local:
            for text in self.WIDE_SCAN:
                over_wire = remote.query(text)
                in_proc = local.query(text)
                assert over_wire == in_proc
                assert len(in_proc.rows) > ROWS_PER_FRAME
                assert len(over_wire.rows) == len(in_proc.rows)
                kinds = {type(v) for row in in_proc.rows for v in row}
                assert {int, float} <= kinds
                for got, want in zip(over_wire.rows, in_proc.rows):
                    assert type(got) is tuple
                    assert [type(v) for v in got] == [type(v) for v in want]
                    assert got == want


class RecordingConn:
    """Stands in for an accepted socket: records every write."""

    def __init__(self):
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))


def serve_recorded(server, text):
    """Answer one query frame on a recording connection."""
    conn = RecordingConn()
    server._serve_query(conn, {
        "type": "query", "id": 7, "text": text, "strategy": None,
        "label": None,
    }, None)
    return conn.writes


#: 1,200 rows at scale 0.002: three ``rows`` chunks, 10 KB in all.
CHUNKED = "select ps_partkey from partsupp where ps_partkey <= 300"

#: 3,000 six-column rows: six ``rows`` chunks, 158 KB in all.
WIDE = (
    "select o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
    "o_orderdate, o_orderpriority from orders"
)


def frames_in(wire):
    """The kinds of the frames in one write; a write that ends inside
    a frame raises ``ProtocolError``."""
    stream = io.BytesIO(wire)
    kinds = []
    while stream.tell() < len(wire):
        kinds.append(read_frame(stream)["type"])
    return kinds


class TestOneWriter:
    def test_each_write_is_one_whole_frame(self, catalog):
        # The rule since the writer coalesces: a write is a whole
        # number of frames, and the terminal frame rides with its rows.
        with make_server(catalog) as server:
            writes = [frames_in(wire)
                      for wire in serve_recorded(server, CHUNKED)]
            assert sum(writes, []) == ["rows"] * 3 + ["summary"]
            assert len(writes) < 4
            assert ["summary"] not in writes
            frames = server.registry.counter("net.frames")
            assert frames.labels(type="rows").value == 3
            assert frames.labels(type="summary").value == 1
            # A reply of a few rows is exactly one write.
            small = serve_recorded(server, COUNT_PART)
            assert [frames_in(wire) for wire in small] == [
                ["rows", "summary"]
            ]

    def test_a_wide_reply_leaves_in_bounded_writes(self, catalog):
        with make_server(catalog) as server:
            wires = serve_recorded(server, WIDE)
            writes = [frames_in(wire) for wire in wires]
        assert sum(writes, []) == ["rows"] * 6 + ["summary"]
        assert len(writes) > 1
        assert ["summary"] not in writes
        # At most the flush size, the ``rows`` frame that crossed it
        # and ``summary`` (smaller than the full chunk measured here).
        full_chunk = 4 + struct.unpack(">I", wires[0][:4])[0]
        for wire in wires:
            assert len(wire) < SEND_BUFFER_BYTES + 2 * full_chunk

    def test_both_sockets_send_without_delay(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port) as client:
            accepted, = server._conns
            for sock in (accepted, client._sock):
                assert sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )

    def test_wire_bytes_are_the_v3_frames(self, catalog):
        text = CHUNKED
        with make_server(catalog) as server, \
                QueryService(catalog, ServiceConfig()) as twin:
            wire = b"".join(serve_recorded(server, text))
            twin.submit(text)
            payload = twin.run().outcomes[0].to_result().to_payload()
        rows = payload.pop("rows")
        by_hand = [
            {"type": "rows", "id": 7, "rows": rows[at:at + ROWS_PER_FRAME]}
            for at in range(0, len(rows), ROWS_PER_FRAME)
        ] + [{"type": "summary", "id": 7, "result": payload}]
        frames = [encode_frame(f) for f in by_hand]
        assert wire == b"".join(frames)
        # Each chunk is in the column layout, its int column one blob
        # of little-endian int64s; the summary stays a JSON object.
        for frame, chunk in zip(frames, by_hand[:-1]):
            assert frame[4] == ROWS_MARKER
            values = [row[0] for row in chunk["rows"]]
            assert frame.endswith(
                struct.pack("<%dq" % len(values), *values)
            )
        assert frames[-1][4:5] == b"{"


class TestNoReplyStall:
    """Tripwire, over real loopback: a reply written as two small
    segments waits out the peer's delayed ACK, a fixed ~40 ms, while
    the work here is ~1 ms — so 20 ms is a 20x margin either way."""

    @staticmethod
    def median_round_trip_ms(client, text, status):
        assert client.query(text).status in ("ok", "cached")  # warm up
        trips = []
        for _ in range(50):
            begun = time.perf_counter()
            assert client.query(text).status == status
            trips.append(time.perf_counter() - begun)
        return statistics.median(trips) * 1000.0

    def test_small_cached_reply(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port) as client:
            assert self.median_round_trip_ms(
                client, COUNT_PART, "cached") < 20.0

    def test_chunked_reply_with_the_cache_off(self, catalog):
        with make_server(catalog, result_cache=False) as server, \
                connect(port=server.port) as client:
            assert self.median_round_trip_ms(client, CHUNKED, "ok") < 20.0


class TestQuotas:
    def test_over_quota_tenant_shed_others_proceed(self, catalog):
        quotas = {"capped": TenantQuota(max_state_bytes=1.0)}
        with make_server(catalog, quotas=quotas) as server:
            with connect(port=server.port, tenant="capped") as capped:
                shed = capped.query("Q2A")
                assert shed.status == "shed"
                assert shed.reason == "quota:state"
                assert shed.rows == []
                assert capped.last_shed_retry_s > 0
            with connect(port=server.port, tenant="free") as free:
                assert free.query("Q2A").status == "ok"

    def test_concurrent_cap_sheds_within_one_batch(self, catalog):
        quotas = {"capped": TenantQuota(max_concurrent=1)}
        service = QueryService(
            catalog, ServiceConfig(result_cache=False, quotas=quotas),
        )
        statuses = {}
        with ReproServer(service) as server:
            def worker(i):
                with connect(port=server.port, tenant="capped") as c:
                    statuses[i] = c.query("Q1A").status
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        # Whether the four land in one dispatch batch depends on
        # timing; whatever ran, nothing may exceed the cap of one
        # concurrent query, and every query terminated.
        assert sorted(statuses) == [0, 1, 2, 3]
        assert set(statuses.values()) <= {"ok", "shed"}

    def test_cached_results_bypass_quota(self, catalog):
        quotas = {"t": TenantQuota(max_state_bytes=1.0)}
        service = QueryService(catalog, ServiceConfig(quotas=quotas))
        # Warm the result cache from an unquota'd tenant...
        service.submit("Q1A", tenant="free")
        service.run()
        with ReproServer(service) as server:
            with connect(port=server.port, tenant="t") as client:
                # ...the capped tenant still gets the cached replay.
                assert client.query("Q1A").status == "cached"


class TestConcurrency:
    def test_many_clients_batch_onto_one_service(self, catalog):
        results = {}
        with make_server(catalog) as server:
            def worker(i):
                with connect(port=server.port, tenant="t%d" % (i % 3)) as c:
                    results[i] = c.query("Q1A")
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert len(results) == 12
            assert all(r.ok for r in results.values())
            # All clients saw the same rows (first execution + caches).
            payloads = {tuple(map(tuple, r.to_payload()["rows"]))
                        for r in results.values()}
            assert len(payloads) == 1
            assert server.registry.gauge("net.connections").max_value >= 2
            frames = server.registry.counter("net.frames")
            assert frames.labels(type="query").value == 12

    def test_two_hundred_clients_held_open_at_once(self, catalog, tmp_path):
        """The connection floor: every client connects, then a barrier
        holds all of them before the first query, so 200+ sockets are
        open together.  A few consume their rows slowly — that must
        stall nobody else — and one more connection polls the admin
        frames for the whole run without a single error.  The
        telemetry plane is fully on: profile ring, slow-query
        threshold, event log."""
        n_clients, n_slow = 208, 6
        mix = ("Q1A", "Q3A", COUNT_PART)

        class SlowClient(Client):
            def _recv(self):
                time.sleep(0.005)
                return super()._recv()

        barrier = threading.Barrier(n_clients)
        lock = threading.Lock()
        oks, failures = [], []
        admin = {"polls": 0, "errors": []}
        stop = threading.Event()

        def worker(i, port):
            cls = SlowClient if i < n_slow else Client
            try:
                with cls(port=port, tenant="t%d" % (i % 4)) as client:
                    barrier.wait(timeout=120)
                    got = [client.query(mix[(i + k) % len(mix)]).ok
                           for k in range(2)]
                with lock:
                    oks.extend(got)
            except Exception as exc:
                barrier.abort()
                with lock:
                    failures.append("%d: %r" % (i, exc))

        def poll(port):
            try:
                with connect(port=port, tenant="admin") as client:
                    while not stop.is_set():
                        if "registry" not in client.stats():
                            admin["errors"].append("stats without registry")
                        client.proclist()
                        if client.health()["status"] != "ok":
                            admin["errors"].append("health not ok")
                        admin["polls"] += 1
                        time.sleep(0.02)
            except Exception as exc:
                admin["errors"].append(repr(exc))

        with make_server(
            catalog, event_log=str(tmp_path / "events.jsonl"),
            slow_query_ms=30_000.0,
        ) as server:
            with connect(port=server.port) as warm:
                for text in mix:
                    assert warm.query(text).ok
            poller = threading.Thread(target=poll, args=(server.port,))
            threads = [
                threading.Thread(target=worker, args=(i, server.port))
                for i in range(n_clients)
            ]
            poller.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            stop.set()
            poller.join(timeout=30)

            assert failures == []
            assert len(oks) == 2 * n_clients and all(oks)
            assert admin["polls"] >= 1 and admin["errors"] == []
            assert server.service.eventlog.events_written >= 1
            connections = server.registry.gauge("net.connections")
            inflight = server.registry.gauge("net.inflight")
            assert connections.max_value >= n_clients
            deadline = time.monotonic() + 5.0
            while ((connections.value or inflight.value)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert (connections.value, inflight.value) == (0, 0)

    def test_tenant_is_bound_at_hello(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port, tenant="alice") as client:
            assert client.query("Q1A").tenant == "alice"


class TestProtocolEdges:
    def test_malformed_frame_drops_only_that_connection(self, catalog):
        with make_server(catalog) as server:
            raw = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30,
            )
            raw.sendall(encode_frame(hello_frame()))
            rfile = raw.makefile("rb")
            read_frame(rfile)  # server hello
            raw.sendall(struct.pack(">I", 12) + b"garbage-here")
            reply = read_frame(rfile)
            assert reply["type"] == "error"
            assert not rfile.read(1)  # then the connection closes
            raw.close()
            # The server survived: a fresh client still works.
            with connect(port=server.port) as client:
                assert client.query("Q1A").ok

    def test_deeply_nested_frame_is_answered_with_an_error(self, catalog):
        depth = 100_000  # ~200 KB of brackets, past the recursion limit
        nested = (b'{"type":"query","id":1,"text":' + b"[" * depth
                  + b"]" * depth + b"}")
        with make_server(catalog) as server:
            raw = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30,
            )
            raw.sendall(encode_frame(hello_frame()))
            rfile = raw.makefile("rb")
            read_frame(rfile)  # server hello
            raw.sendall(struct.pack(">I", len(nested)) + nested)
            reply = read_frame(rfile)
            assert reply["type"] == "error"
            assert "nested too deeply" in reply["message"]
            assert not rfile.read(1)  # then the connection closes
            raw.close()
            # The handler ended cleanly: another connection is served.
            with connect(port=server.port) as client:
                assert client.query("Q1A").ok

    def test_version_mismatch_rejected(self, catalog):
        with make_server(catalog) as server:
            raw = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30,
            )
            bad = dict(hello_frame(), version=PROTOCOL_VERSION + 9)
            raw.sendall(encode_frame(bad))
            reply = read_frame(raw.makefile("rb"))
            assert reply["type"] == "error"
            assert "version mismatch" in reply["message"]
            raw.close()

    def test_client_rejects_mismatched_response_id(self):
        class FakeClient(Client):
            def __init__(self):  # no socket; drive query() directly
                self.last_shed_retry_s = None
                self._next_id = 0
                self.frames = [{"type": "summary", "id": 99, "result": {}}]
                self.sent = []

            def _send(self, frame):
                self.sent.append(frame)

            def _recv(self):
                return self.frames.pop(0)

        with pytest.raises(ProtocolError, match="does not match"):
            FakeClient().query("Q1A")


class TestLifecycle:
    def test_shutdown_frame_stops_server(self, catalog):
        server = make_server(catalog)
        with connect(port=server.port) as client:
            assert client.query("Q1A").ok
            client.shutdown_server()
        assert server.wait(timeout=30)
        server.close()
        frames = server.registry.counter("net.frames")
        assert frames.labels(type="shutdown").value == 1

    def test_idle_close_is_prompt_and_leaves_no_threads(self, catalog):
        # Closing the listener does not wake a thread blocked in
        # accept(); close() used to wait out its 10 s join timeout and
        # leave the accept thread alive.
        before = set(threading.enumerate())
        server = make_server(catalog)
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 1.0
        leaked = [
            thread.name for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
            and thread.name.startswith("repro-net-")
        ]
        assert leaked == []

    def test_close_is_idempotent_and_closes_owned_service(self, catalog):
        service = QueryService(catalog, ServiceConfig())
        closed = []
        original = service.close
        service.close = lambda: (closed.append(1), original())
        server = ReproServer(service).start()
        server.close()
        server.close()
        assert closed == [1]

    def test_borrowed_service_stays_open(self, catalog):
        with QueryService(catalog, ServiceConfig()) as service:
            server = ReproServer(service, owns_service=False).start()
            server.close()
            # Still usable after the server is gone.
            service.submit("Q1A")
            assert service.run().outcomes[0].status == "ok"

    def test_inflight_gauge_returns_to_zero(self, catalog):
        with make_server(catalog) as server:
            with connect(port=server.port) as client:
                client.query("Q1A")
            gauge = server.registry.gauge("net.inflight")
            # The handler decrements after the terminal frame is on the
            # wire, so the client can get here first.
            deadline = time.monotonic() + 5.0
            while gauge.value and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gauge.value == 0
            assert gauge.max_value >= 1

    def test_idle_dispatcher_keeps_no_request_alive(self, catalog):
        # The dispatcher used to keep the last request group in its
        # loop locals while it waited for the next one — after a wide
        # reply, megabytes of rows held by an idle server.
        with make_server(catalog, result_cache=False) as server:
            with Client(port=server.port) as client:
                assert client.query(CHUNKED).ok
            deadline = time.monotonic() + 5.0
            while server._proc and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server._proc
            gc.collect()
            live = [
                obj for obj in gc.get_objects()
                if isinstance(obj, _Request)
            ]
            assert live == []
