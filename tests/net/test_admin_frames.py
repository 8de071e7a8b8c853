"""Admin-frame tests: introspection under load, and abuse cases.

The contract under test (protocol v2): ``stats`` / ``proclist`` /
``profile`` / ``health`` are answered on the connection's handler
thread, never through the dispatcher queue — so they stay responsive
while queries execute, and a slow admin consumer can never stall
query dispatch for everyone else.
"""

import socket
import struct
import threading

import pytest

from repro.client import InProcessClient, connect
from repro.data.tpch import cached_tpch
from repro.net.protocol import (
    MAX_FRAME_BYTES, encode_frame, hello_frame, read_frame,
)
from repro.net.server import ReproServer
from repro.obs.export import validate_prometheus
from repro.service import ServiceConfig
from repro.service.service import QueryService


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


def make_server(catalog, **config_kwargs):
    service = QueryService(catalog, ServiceConfig(**config_kwargs))
    return ReproServer(service).start()


def raw_session(port):
    """A hello-completed raw socket + read file, for frame-level abuse."""
    raw = socket.create_connection(("127.0.0.1", port), timeout=30)
    raw.sendall(encode_frame(hello_frame()))
    rfile = raw.makefile("rb")
    read_frame(rfile)  # server hello
    return raw, rfile


class TestAdminSurface:
    def test_stats_reports_server_and_service(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port, tenant="t") as client:
            client.query("Q1A")
            stats = client.stats()
            assert stats["server"]["served_queries"] == 1
            assert stats["server"]["connections"] == 1
            assert stats["server"]["inflight"] == 0
            assert stats["service"]["batches_run"] == 1
            assert stats["service"]["profiles_retained"] == 1
            registry = stats["registry"]
            assert registry["queries.completed"]["value"] == 1
            frames = registry["net.frames"]["series"]
            assert frames['type="query"']["value"] == 1

    def test_prometheus_page_is_valid(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port, tenant="t") as client:
            client.query("Q2A")
            page = client.prometheus()
            assert validate_prometheus(page) == []
            assert "repro_queries_completed_total 1" in page

    def test_profile_round_trips_and_unknown_is_null(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port, tenant="t") as client:
            result = client.query("Q2A")
            seq = server.service.profiles.last(1)[0].seq
            profile = client.profile(seq)
            assert profile["status"] == result.status
            assert profile["rows"] == len(result.rows)
            assert profile["operators"]
            assert client.profile(seq + 1000) is None

    def test_health_flips_to_stopping(self, catalog):
        with make_server(catalog) as server:
            with connect(port=server.port) as client:
                health = client.health()
                assert health["status"] == "ok"
                assert health["uptime_wall_s"] >= 0
            server.stop()
            # A stopping server may close idle connections before
            # another frame arrives, so assert on the response builder
            # rather than racing the handler loop over the wire.
            response = server._admin_response("health", {"id": 1})
            assert response["status"] == "stopping"

    def test_proclist_empty_when_idle(self, catalog):
        with make_server(catalog) as server, \
                connect(port=server.port) as client:
            assert client.proclist() == []

    def test_proclist_sees_inflight_query(self, catalog):
        with make_server(catalog) as server:
            seen = []
            barrier = threading.Event()

            def runner():
                with connect(port=server.port, tenant="busy") as c:
                    barrier.set()
                    c.query("Q2A")

            thread = threading.Thread(target=runner)
            thread.start()
            barrier.wait(timeout=30)
            with connect(port=server.port) as admin:
                # Poll from a second connection while the first's query
                # is somewhere between queued and streaming.
                for _ in range(2000):
                    rows = admin.proclist()
                    if rows:
                        seen.extend(rows)
                        break
                    if not thread.is_alive():
                        break
            thread.join(timeout=60)
            if seen:  # tiny queries can finish before a poll lands
                row = seen[0]
                assert row["tenant"] == "busy"
                assert row["phase"] in (
                    "queued", "admitted", "executing", "streaming",
                )
                assert row["elapsed_wall_s"] >= 0


class TestInProcessParity:
    def test_same_surface_without_a_server(self, catalog):
        with InProcessClient(catalog, ServiceConfig(),
                             tenant="t") as client:
            client.query("Q1A")
            stats = client.stats()
            assert "server" not in stats  # no server to describe
            assert stats["service"]["batches_run"] == 1
            assert stats["registry"]["queries.completed"]["value"] == 1
            assert validate_prometheus(client.prometheus()) == []
            assert client.proclist() == []
            seq = client.service.profiles.last(1)[0].seq
            assert client.profile(seq)["status"] in ("ok", "cached")
            assert client.profile(seq + 99) is None
            assert client.health()["status"] == "ok"


class TestAbuse:
    def test_profile_with_garbage_seq_is_null_not_error(self, catalog):
        with make_server(catalog) as server:
            raw, rfile = raw_session(server.port)
            for bad_seq in ("abc", None, True, 1.5, [1], {"x": 1}):
                raw.sendall(encode_frame(
                    {"type": "profile", "id": 1, "seq": bad_seq}
                ))
                reply = read_frame(rfile)
                assert reply["type"] == "profile"
                assert reply["profile"] is None
            raw.close()

    def test_oversized_frame_drops_only_that_connection(self, catalog):
        with make_server(catalog) as server:
            raw, rfile = raw_session(server.port)
            raw.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            reply = read_frame(rfile)
            assert reply["type"] == "error"
            assert "ceiling" in reply["message"]
            assert not rfile.read(1)  # connection closed after
            raw.close()
            with connect(port=server.port) as client:
                assert client.stats()["server"]["connections"] == 1

    def test_admin_frames_interleave_with_row_streaming(self, catalog):
        with make_server(catalog) as server:
            raw, rfile = raw_session(server.port)
            # Fire a query and several admin requests back to back
            # without reading anything; the server must answer in
            # order without mixing admin replies into the row stream.
            raw.sendall(encode_frame(
                {"type": "query", "id": 1, "text": "Q2A",
                 "strategy": None, "label": None}
            ))
            frames = []
            while True:
                frame = read_frame(rfile)
                frames.append(frame["type"])
                if frame["type"] in ("summary", "error", "shed"):
                    break
            assert frames[-1] == "summary"
            assert "rows" in frames
            raw.sendall(encode_frame({"type": "stats", "id": 2}))
            raw.sendall(encode_frame({"type": "health", "id": 3}))
            assert read_frame(rfile)["type"] == "stats"
            assert read_frame(rfile)["type"] == "health"
            raw.close()

    def test_slow_admin_consumer_cannot_stall_dispatch(self, catalog):
        """A client that requests stats but never reads them must not
        block other clients' queries (admin replies are written on the
        slow client's own handler thread)."""
        with make_server(catalog, result_cache=False) as server:
            raw, rfile = raw_session(server.port)
            # Queue up many unread stats responses; the handler thread
            # may block in sendall once buffers fill — that is its
            # problem alone.
            for i in range(50):
                raw.sendall(encode_frame({"type": "stats", "id": i}))
            with connect(port=server.port, tenant="fast") as client:
                for _ in range(3):
                    assert client.query("Q1A").ok
            raw.close()


class TestVersionGate:
    def test_v1_client_is_refused(self, catalog):
        with make_server(catalog) as server:
            raw = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30,
            )
            raw.sendall(encode_frame(dict(hello_frame(), version=1)))
            reply = read_frame(raw.makefile("rb"))
            assert reply["type"] == "error"
            assert "version mismatch" in reply["message"]
            raw.close()

    def test_v2_client_is_refused(self, catalog):
        # v2 sent rows as JSON arrays; v3's column chunks replace them.
        with make_server(catalog) as server:
            raw = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30,
            )
            raw.sendall(encode_frame(dict(hello_frame(), version=2)))
            rfile = raw.makefile("rb")
            reply = read_frame(rfile)
            assert reply["type"] == "error"
            assert "speaks 2" in reply["message"]
            assert not rfile.read(1)  # then the connection closes
            raw.close()
