"""The unified client API: one ``QueryResult``, two transports.

``connect(host, port)`` returns a socket :class:`Client` speaking the
:mod:`repro.net.protocol` frame format to a running server;
:class:`InProcessClient` is its twin that embeds a
:class:`~repro.service.QueryService` directly.  Both expose the same
surface —

* ``query(text, strategy=..., label=...)`` returning the public
  :class:`~repro.service.result.QueryResult` (status ``ok``/``cached``
  or ``shed``; engine faults raise
  :class:`~repro.common.errors.ExecutionError` on either transport);
* ``last_shed_retry_s`` — the server's backoff hint after a shed;
* the introspection surface — ``stats(prom=...)``, ``proclist()``,
  ``profile(seq)``, ``health()`` — answering from the admin frames
  (socket) or the service's own registry/profile ring (in-process);
* context-manager lifecycle (``close()`` releases the socket, or the
  owned service's spill dirs and pools).

Bit-identity between the two is a tested invariant: results travel as
:meth:`QueryResult.to_payload` payloads, every field of which is
JSON-exact, so the same query stream against the same catalog hands
back *equal* objects from both transports.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

from repro.common.errors import ExecutionError
from repro.net.protocol import (
    FRAME_ERROR, FRAME_HEALTH, FRAME_PROCLIST, FRAME_PROFILE, FRAME_QUERY,
    FRAME_ROWS, FRAME_SHED, FRAME_SHUTDOWN, FRAME_STATS, FRAME_SUMMARY,
    MAX_FRAME_BYTES, ProtocolError, check_hello, encode_frame, hello_frame,
    read_frame,
)
from repro.service.result import SHED, QueryResult
from repro.service.query import Request
from repro.service.service import QueryService

__all__ = ["Client", "InProcessClient", "connect"]


def _settle(client, result, error=None, retry_after_s=None) -> QueryResult:
    """What a caller gets for a settled request, on either transport:
    an error (a failed submit, an engine ``error`` query, an engine
    fault, a queue timeout) raises; ok/cached/shed return the result,
    a shed leaving its backoff hint on the client."""
    if error is not None:
        raise ExecutionError(error)
    if result.status == SHED:
        client.last_shed_retry_s = retry_after_s
    return result


class Client:
    """A socket connection to a :class:`~repro.net.ReproServer`.

    One client is one protocol session on one TCP connection; it is
    **not** thread-safe (open one client per thread — connections are
    cheap, and the stress bench does exactly that).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        tenant: Optional[str] = None,
        timeout: Optional[float] = 60.0,
        max_frame: int = MAX_FRAME_BYTES,
    ):
        self.host = host
        self.port = port
        self.tenant = tenant
        self.max_frame = max_frame
        #: ``retry_after_s`` from the most recent shed response.
        self.last_shed_retry_s: Optional[float] = None
        self._next_id = 0
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # One request is one small write; it should leave when written.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._closed = False
        try:
            self._send(hello_frame(tenant=tenant))
            check_hello(read_frame(self._rfile, max_frame), "server")
        except BaseException:
            self.close()
            raise

    # -- plumbing ----------------------------------------------------------

    def _send(self, frame) -> None:
        self._sock.sendall(encode_frame(frame))

    def _recv(self):
        return read_frame(self._rfile, self.max_frame)

    def _request(self, kind: str, **fields) -> int:
        """Send a ``kind`` frame under a fresh correlation id; returns
        the id."""
        self._next_id += 1
        self._send({"type": kind, "id": self._next_id, **fields})
        return self._next_id

    def _answer(self, qid: int):
        """The next frame, which must answer request ``qid``."""
        frame = self._recv()
        if frame.get("id") != qid:
            raise ProtocolError(
                "response id %r does not match request id %d"
                % (frame.get("id"), qid)
            )
        return frame

    # -- the API -----------------------------------------------------------

    def query(
        self,
        text: str,
        strategy: Optional[str] = None,
        label: Optional[str] = None,
    ) -> QueryResult:
        """Run one query; returns the unified result or raises
        :class:`ExecutionError` (mirroring the in-process twin)."""
        qid = self._request(
            FRAME_QUERY, text=text, strategy=strategy, label=label,
        )
        rows = []
        while True:
            frame = self._answer(qid)
            kind = frame.get("type")
            if kind == FRAME_ROWS:
                rows.extend(frame.get("rows") or [])
            elif kind == FRAME_ERROR:
                return _settle(
                    self, None, frame.get("message") or "query failed"
                )
            elif kind in (FRAME_SUMMARY, FRAME_SHED):
                result = QueryResult.from_payload(
                    dict(frame["result"], rows=rows)
                )
                return _settle(
                    self, result, retry_after_s=frame.get("retry_after_s")
                )
            else:
                raise ProtocolError("unexpected %r frame in response" % kind)

    # -- introspection -----------------------------------------------------

    def _admin(self, kind: str, **extra):
        """One admin request/response round-trip."""
        response = self._answer(self._request(kind, **extra))
        if response.get("type") == FRAME_ERROR:
            raise ExecutionError(
                response.get("message") or "%s frame failed" % kind
            )
        if response.get("type") != kind:
            raise ProtocolError(
                "expected a %s response; got %r"
                % (kind, response.get("type"))
            )
        return response

    def stats(self) -> dict:
        """The server's live stats: registry snapshot + gauges."""
        return self._admin(FRAME_STATS)["stats"]

    def prometheus(self) -> str:
        """The server's metrics as a Prometheus text-format page."""
        return self._admin(FRAME_STATS, prom=True).get("prom", "")

    def proclist(self) -> list:
        """The live in-flight query table."""
        return self._admin(FRAME_PROCLIST)["queries"]

    def profile(self, seq: int) -> Optional[dict]:
        """The retained profile for service sequence ``seq``, or None
        if it was never recorded or has been evicted from the ring."""
        return self._admin(FRAME_PROFILE, seq=seq).get("profile")

    def health(self) -> dict:
        """The server's readiness snapshot (``status`` is ``ok`` while
        serving, ``stopping`` once shutdown has been signalled)."""
        response = self._admin(FRAME_HEALTH)
        return {
            key: value for key, value in response.items()
            if key not in ("type", "id")
        }

    def shutdown_server(self) -> None:
        """Ask the server to stop cleanly; waits for the ack."""
        self._send({"type": FRAME_SHUTDOWN})
        frame = self._recv()
        if frame.get("type") != FRAME_SHUTDOWN:
            raise ProtocolError(
                "expected a shutdown ack; got %r" % frame.get("type")
            )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for closer in (self._rfile.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InProcessClient:
    """The in-process twin: same API, no socket.

    Construct it over a catalog (optionally with a
    :class:`~repro.service.ServiceConfig`) to own a private service,
    or pass ``service=`` to borrow one that an outer scope owns.  A
    lock serialises ``query()`` so many threads may share one twin —
    mirroring how the socket server serialises batches onto the one
    service.
    """

    def __init__(
        self,
        catalog=None,
        config=None,
        tenant: Optional[str] = None,
        service=None,
    ):
        if service is None:
            if catalog is None:
                raise ValueError(
                    "InProcessClient needs a catalog or a service"
                )
            service = QueryService(catalog, config)
            self._owns_service = True
        else:
            if catalog is not None or config is not None:
                raise ValueError(
                    "pass either a borrowed service or a catalog/config "
                    "to own, not both"
                )
            self._owns_service = False
        self.service = service
        self.tenant = tenant
        self.last_shed_retry_s: Optional[float] = None
        self._lock = threading.Lock()
        self._closed = False

    def query(
        self,
        text: str,
        strategy: Optional[str] = None,
        label: Optional[str] = None,
    ) -> QueryResult:
        request = Request(text, strategy, label, self.tenant)
        with self._lock:
            self.service.run_requests([request])
        return _settle(
            self, request.result, request.error, request.retry_after_s
        )

    # -- introspection -----------------------------------------------------
    #
    # Same surface as the socket client, answered straight from the
    # embedded service (no server section: there is no server).

    def stats(self) -> dict:
        service = self.service
        return {"registry": service.registry.snapshot(), **service.stats()}

    def prometheus(self) -> str:
        from repro.obs.export import to_prometheus

        return to_prometheus(self.service.registry)

    def proclist(self) -> list:
        """Queries waiting in the embedded service's queue.  The
        in-process twin runs queries synchronously inside ``query()``,
        so entries only appear between an explicit ``submit`` and the
        next ``run`` on a shared service."""
        return self.service.proclist()

    def profile(self, seq: int) -> Optional[dict]:
        profile = self.service.profiles.get(seq)
        return profile.as_dict() if profile is not None else None

    def health(self) -> dict:
        return {
            "status": "closed" if self._closed else "ok",
            **self.service.health(),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_service:
            self.service.close()

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def connect(
    host: str = "127.0.0.1",
    port: int = 7734,
    tenant: Optional[str] = None,
    timeout: Optional[float] = 60.0,
) -> Client:
    """Open a socket :class:`Client` to a running repro server."""
    return Client(host=host, port=port, tenant=tenant, timeout=timeout)
