"""The socket front door: a threaded server around one QueryService.

Architecture (DESIGN.md section 12): an **accept thread** hands each
connection to its own daemon **handler thread**; handlers parse frames
and enqueue :class:`_Request`\\ s on one queue; a single **dispatcher
thread** drains that queue in groups and drives the service — so
concurrent clients genuinely *batch* (one ``service.run()`` packs every
request that arrived while the previous batch executed, exactly the
group-commit shape the batch-sequential service wants), while each
handler streams its own response frames back at its client's pace.  A
slow consumer therefore throttles only its own connection: the
dispatcher settled its request long ago and moved on.

Admission, SLO shedding and the per-tenant hard quotas all run inside
:meth:`QueryService._dispatch` — the server adds no second policy
layer; it just translates shed outcomes into ``shed`` frames carrying
``retry_after_s`` hints.

Observability rides the service's own registry and tracer: gauges
``net.connections`` / ``net.inflight``, one ``net.frames`` counter with
per-type labeled children, a wall-clock request-latency histogram, and
per-frame trace instants.  The admin frames (``stats``, ``proclist``,
``profile``, ``health``) are answered synchronously on the connection's
handler thread — they never enter the dispatcher queue, so a slow admin
consumer throttles only itself and query dispatch is unaffected.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Dict, List, Optional

from repro.net.protocol import (
    ADMIN_FRAMES, FRAME_ERROR, FRAME_HEALTH, FRAME_HELLO, FRAME_PROCLIST,
    FRAME_PROFILE, FRAME_QUERY, FRAME_ROWS, FRAME_SHUTDOWN, FRAME_STATS,
    MAX_FRAME_BYTES, REPLY_FRAMES, SEND_BUFFER_BYTES, ConnectionClosed,
    ProtocolError, check_hello, encode_frame, hello_frame, read_frame,
    reply_frames,
)
from repro.obs.export import to_prometheus
from repro.service.query import Request

#: Dispatcher wake-up sentinel.
_STOP = object()

#: What a client may send after its hello.
_REQUEST_FRAMES = ADMIN_FRAMES | {FRAME_QUERY, FRAME_SHUTDOWN}


class _Request(Request):
    """A query frame in flight between a handler and the dispatcher;
    the live proc table holds these."""

    __slots__ = ("done", "enqueued_wall")

    def __init__(self, frame: Dict, tenant):
        super().__init__(
            frame.get("text"), frame.get("strategy"), frame.get("label"),
            tenant,
        )
        #: Set by the dispatcher once the request is settled.
        self.done = threading.Event()
        self.enqueued_wall = time.monotonic()


class ReproServer:
    """Serves the length-prefixed JSON protocol on a TCP listener.

    The server *wraps* a long-lived :class:`~repro.service.QueryService`
    and owns its lifecycle while running: ``close()`` (or the context
    manager) stops the listener, fails outstanding requests, closes
    every connection, and closes the service (spill dirs, worker
    pools) unless it was passed in with ``owns_service=False``.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        backlog: int = 128,
        max_batch: int = 64,
        request_timeout_s: float = 300.0,
        owns_service: bool = True,
        max_frame: int = MAX_FRAME_BYTES,
        prom_out: Optional[str] = None,
        prom_interval_s: float = 5.0,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.backlog = backlog
        #: Most requests one dispatcher round may drain; bounds how
        #: long the oldest queued request waits for batch formation.
        self.max_batch = max_batch
        self.request_timeout_s = request_timeout_s
        self.owns_service = owns_service
        self.max_frame = max_frame
        #: When set, a daemon thread rewrites this path with the
        #: Prometheus text-format page every ``prom_interval_s``
        #: wall seconds (plus once at shutdown) — file-based scraping
        #: for environments without an HTTP scrape path.
        self.prom_out = prom_out
        self.prom_interval_s = prom_interval_s
        self.registry = service.registry
        self.tracer = service.tracer
        self._listener: Optional[socket.socket] = None
        self._queue: "queue.Queue" = queue.Queue()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._conns: set = set()
        self._conn_lock = threading.Lock()
        self._obs_lock = threading.Lock()
        self._inflight = 0
        self._started = False
        self._closed = False
        #: Live in-flight query table for ``proclist``: server-assigned
        #: qid -> request.  Entries are added when a query frame is
        #: accepted and removed when its terminal frame has been sent.
        self._proc: Dict[int, _Request] = {}
        self._proc_lock = threading.Lock()
        self._next_qid = 0
        self._started_wall = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._listener is None:
            return self._requested_port
        return self._listener.getsockname()[1]

    def start(self) -> "ReproServer":
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(self.backlog)
        self._listener = listener
        self._started_wall = time.monotonic()
        targets = [
            ("repro-net-dispatch", self._dispatch_loop),
            ("repro-net-accept", self._accept_loop),
        ]
        if self.prom_out is not None:
            targets.append(("repro-net-prom", self._prom_loop))
        for name, target in targets:
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Signal shutdown; safe to call from handler threads."""
        self._stop.set()
        listener = self._listener
        if listener is not None:
            # close() alone does not wake a thread blocked in accept():
            # shutdown() does on Linux, and where the platform refuses
            # it on a listening socket a throwaway loopback connection
            # does.  A second stop() finds the socket already closed and
            # nothing left to wake.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                try:
                    host, port = listener.getsockname()
                    if host == "0.0.0.0":
                        host = "127.0.0.1"
                    socket.create_connection((host, port), 1.0).close()
                except OSError:
                    pass
            try:
                listener.close()
            except OSError:
                pass
        self._queue.put(_STOP)

    def close(self) -> None:
        """Stop, join the core threads, drop connections, and (when
        owned) close the underlying service."""
        if self._closed:
            return
        self._closed = True
        self.stop()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            self._drop(conn)
        if self.owns_service:
            self.service.close()

    def _drop(self, conn) -> None:
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown is signalled; True if it was."""
        return self._stop.wait(timeout)

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    def __enter__(self) -> "ReproServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- observability -----------------------------------------------------

    def _observe(self, connections_delta=0, inflight_delta=0,
                 frame: Optional[str] = None,
                 wall_latency_s: Optional[float] = None) -> None:
        """All registry writes funnel through one lock: the registry
        (like the service) is single-threaded by design, and the
        server is the only concurrent writer in the process."""
        with self._obs_lock:
            if connections_delta:
                with self._conn_lock:
                    live = len(self._conns)
                self.registry.gauge("net.connections").set(live)
            if inflight_delta:
                self._inflight += inflight_delta
                self.registry.gauge("net.inflight").set(self._inflight)
            if frame is not None:
                self.registry.counter("net.frames").labels(
                    type=frame
                ).inc()
                if self.tracer is not None:
                    self.tracer.instant_now(
                        "net.frame.%s" % frame, "net", None
                    )
            if wall_latency_s is not None:
                self.registry.histogram(
                    "net.request_wall_s"
                ).observe(wall_latency_s)

    def _sync_trace_drops(self) -> None:
        """Mirror the tracer's ring evictions into the registry (the
        counter is monotone, so fold in the delta since last sync)."""
        tracer = self.tracer
        if tracer is None:
            return
        counter = self.registry.counter("trace.dropped_events")
        dropped = tracer.dropped
        if dropped > counter.value:
            with self._obs_lock:
                delta = dropped - counter.value
                if delta > 0:
                    counter.inc(delta)

    # -- admin frames ------------------------------------------------------

    def _stats_payload(self) -> Dict:
        """The ``stats`` frame body: registry snapshot + live gauges."""
        self._sync_trace_drops()
        service = self.service
        with self._conn_lock:
            connections = len(self._conns)
        payload = {
            "registry": self.registry.snapshot(),
            "server": {
                "connections": connections,
                "inflight": self._inflight,
                "served_queries": service.served_queries,
                "uptime_wall_s": time.monotonic() - self._started_wall,
                "queue_depth": self._queue.qsize(),
                "max_batch": self.max_batch,
            },
            **service.stats(),
        }
        eventlog = getattr(service, "eventlog", None)
        if eventlog is not None:
            payload["eventlog"] = {
                "path": eventlog.path,
                "events_written": eventlog.events_written,
                "rotations": eventlog.rotations,
            }
        return payload

    def _proclist_payload(self) -> List[Dict]:
        now = time.monotonic()
        clock = self.service.clock
        with self._proc_lock:
            table = sorted(self._proc.items())
        return [
            request.proc_row(qid, clock, now - request.enqueued_wall)
            for qid, request in table
        ]

    def _admin_response(self, kind: str, frame: Dict) -> Dict:
        """Answer one admin frame.  Runs on the connection's handler
        thread; reads shared state under the appropriate locks but
        never enqueues on the dispatcher, so a slow admin consumer
        cannot stall query dispatch."""
        qid = frame.get("id")
        if kind == FRAME_HEALTH:
            with self._conn_lock:
                connections = len(self._conns)
            return {
                "type": FRAME_HEALTH, "id": qid,
                "status": "stopping" if self._stop.is_set() else "ok",
                "uptime_wall_s": time.monotonic() - self._started_wall,
                "connections": connections,
                "inflight": self._inflight,
                **self.service.health(),
            }
        if kind == FRAME_STATS:
            response = {
                "type": FRAME_STATS, "id": qid,
                "stats": self._stats_payload(),
            }
            if frame.get("prom"):
                response["prom"] = to_prometheus(self.registry)
            return response
        if kind == FRAME_PROCLIST:
            return {
                "type": FRAME_PROCLIST, "id": qid,
                "queries": self._proclist_payload(),
            }
        # FRAME_PROFILE: an unknown/evicted seq is a null profile, not
        # an error — eviction is a normal state for a bounded ring.
        seq = frame.get("seq")
        profile = (
            self.service.profiles.get(seq)
            if isinstance(seq, int) and not isinstance(seq, bool) else None
        )
        return {
            "type": FRAME_PROFILE, "id": qid,
            "profile": profile.as_dict() if profile is not None else None,
        }

    def _prom_loop(self) -> None:
        """Periodic Prometheus snapshot writer (``prom_out``)."""
        while not self._stop.wait(self.prom_interval_s):
            self._write_prom()
        self._write_prom()  # final page so short runs export something

    def _write_prom(self) -> None:
        self._sync_trace_drops()
        try:
            with open(self.prom_out, "w", encoding="utf-8") as fh:
                fh.write(to_prometheus(self.registry))
        except OSError:
            pass  # an unwritable path must not kill the server

    # -- accept / handler threads ------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, addr = self._listener.accept()
            except OSError:
                break  # listener shut down by stop()
            if self._stop.is_set():
                conn.close()  # stop()'s wake-up connection, or too late
                break
            with self._conn_lock:
                self._conns.add(conn)
            self._observe(connections_delta=1)
            thread = threading.Thread(
                target=self._handle, args=(conn,),
                name="repro-net-conn", daemon=True,
            )
            thread.start()

    def _send(self, conn, frames) -> None:
        """The one writer: every frame the server emits leaves here.

        Encoded frames gather in one buffer that is written when the
        frames run out, and before a further ``rows`` frame once it
        holds ``SEND_BUFFER_BYTES`` — so a small reply is one write, a
        terminal frame never travels alone behind its rows (two small
        writes are what the kernel's send coalescing stalls on), and a
        wide reply still streams.  A write may block on a slow consumer
        — that is the point: backpressure lands on this connection's
        thread alone, with at most the flush size plus one ``rows``
        frame and the terminal frame buffered against it.
        """
        buffer = bytearray()
        for frame in frames:
            kind = frame["type"]
            if kind in REPLY_FRAMES:
                self._observe(frame=kind)
            if kind == FRAME_ROWS and len(buffer) >= SEND_BUFFER_BYTES:
                conn.sendall(buffer)
                buffer = bytearray()
            buffer += encode_frame(frame)
        if buffer:
            conn.sendall(buffer)

    def _handle(self, conn) -> None:
        rfile = conn.makefile("rb")
        try:
            # `_send` writes replies whole; the kernel holding a segment
            # back to gather more would only add a delayed-ACK wait.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                self._session(conn, rfile)
            except ProtocolError as exc:
                self._send(conn, [{
                    "type": FRAME_ERROR, "id": None, "message": str(exc),
                }])
        except (ConnectionClosed, OSError):
            pass  # the peer closed, or went away mid-write
        finally:
            try:
                rfile.close()
            except OSError:
                pass
            with self._conn_lock:
                self._conns.discard(conn)
            self._drop(conn)
            self._observe(connections_delta=-1)

    def _session(self, conn, rfile) -> None:
        hello = read_frame(rfile, self.max_frame)
        check_hello(hello, "client")
        self._observe(frame=FRAME_HELLO)
        tenant = hello.get("tenant")
        self._send(conn, [hello_frame(server=True)])
        while not self._stop.is_set():
            frame = read_frame(rfile, self.max_frame)
            kind = frame.get("type")
            if kind not in _REQUEST_FRAMES:
                raise ProtocolError(
                    "unexpected %r frame mid-session" % kind
                )
            self._observe(frame=kind)
            if kind == FRAME_QUERY:
                self._serve_query(conn, frame, tenant)
            elif kind in ADMIN_FRAMES:
                self._send(conn, [self._admin_response(kind, frame)])
            else:
                self._send(conn, [{"type": FRAME_SHUTDOWN}])
                self.stop()
                return

    def _serve_query(self, conn, frame: Dict, tenant) -> None:
        request = _Request(frame, tenant)
        with self._proc_lock:
            self._next_qid += 1
            qid = self._next_qid
            self._proc[qid] = request
        self._observe(inflight_delta=1)
        try:
            self._queue.put(request)
            if not request.done.wait(self.request_timeout_s):
                request.error = (
                    "request timed out after %.0fs in the service queue"
                    % self.request_timeout_s
                )
            request.phase = "streaming"
            self._send(conn, reply_frames(frame.get("id"), request))
        finally:
            self._observe(
                inflight_delta=-1,
                wall_latency_s=time.monotonic() - request.enqueued_wall,
            )
            with self._proc_lock:
                self._proc.pop(qid, None)

    # -- the dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while self._dispatch_group():
            pass
        # Shutdown: fail whatever is still queued so no handler hangs.
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _STOP:
                item.error = "server shutting down"
                item.done.set()

    def _dispatch_group(self) -> bool:
        """Wait for a request, drain up to ``max_batch`` queued ones
        behind it, run them as one service batch and settle them;
        False once shutdown is signalled.  The group lives only in
        this frame, so an idle dispatcher holds no settled request
        (and no reply rows) while it waits for the next one."""
        item = self._queue.get()
        if item is _STOP:
            return False
        requests = [item]
        while len(requests) < self.max_batch:
            try:
                extra = self._queue.get_nowait()
            except queue.Empty:
                break
            if extra is _STOP:
                self._queue.put(_STOP)
                break
            requests.append(extra)
        self.service.run_requests(requests)
        for request in requests:
            request.done.set()
        return True


def serve(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> ReproServer:
    """Start a :class:`ReproServer` on ``service`` and return it."""
    return ReproServer(service, host=host, port=port, **kwargs).start()
