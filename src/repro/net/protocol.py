"""The wire protocol: versioned, length-prefixed JSON frames.

One frame on the wire is::

    +----------------+----------------------------------------+
    | 4-byte big-    | UTF-8 JSON object, exactly `length`    |
    | endian length  | bytes, with a mandatory "type" key     |
    +----------------+----------------------------------------+

Frame types (``PROTOCOL_VERSION`` = 2):

``hello``
    First frame in each direction.  Client: ``{"type": "hello",
    "version": 2, "tenant": <str|null>}``.  Server echoes its version
    and identity; a version mismatch is answered with ``error`` and
    the connection closes.
``query``
    ``{"type": "query", "id": <int>, "text": <sql-or-workload-id>,
    "strategy": <str|null>, "label": <str|null>}``.  ``id`` is the
    client's correlation key, echoed on every response frame.
``rows``
    Zero or more per query: ``{"type": "rows", "id": n,
    "rows": [[...], ...]}`` — result rows in chunks, so a slow
    consumer throttles only its own connection, never the service.
``summary``
    Terminal success frame: the full
    :meth:`repro.service.result.QueryResult.to_payload` dict minus
    ``rows`` (already streamed), under ``"result"``.
``shed``
    Terminal frame for a query the service refused (admission budget,
    SLO, or per-tenant quota): carries ``reason`` and a
    ``retry_after_s`` hint — the client may resubmit after backing off.
``error``
    Terminal frame for a failed query or a protocol violation.
``shutdown``
    Client asks the server to stop accepting and exit cleanly; echoed
    back as the ack before the listener closes.

Admin (introspection) frames, added in version 2.  Each is a
request/response pair sharing one type: the client sends ``{"type":
<kind>, "id": n, ...}`` and the server answers with the same type and
id.  They are answered directly on the connection's handler thread —
never through the dispatcher queue — so a slow admin consumer can
never stall query dispatch:

``stats``
    Request may carry ``"prom": true``.  Response: ``{"type": "stats",
    "id": n, "stats": {registry, server, service, trace}}`` — the full
    metrics-registry snapshot plus server/service gauges — and, when
    requested, ``"prom"`` with the Prometheus text-format page.
``proclist``
    Response ``{"type": "proclist", "id": n, "queries": [...]}``: the
    live in-flight query table (qid, tenant, label, phase
    queued/admitted/executing/streaming, elapsed wall seconds, virtual
    seconds since submission, estimated state bytes, worker id).
``profile``
    Request carries ``"seq"`` (the service sequence number a summary
    frame reported).  Response ``"profile"`` is the retained
    :meth:`repro.obs.profiles.QueryProfile.as_dict` payload, or null
    when the profile was never recorded or has been evicted — an
    unknown seq is an empty answer, not an error.
``health``
    Response: ``{"type": "health", "id": n, "status": "ok", ...}``
    with uptime, served-query and connection counts — the readiness
    probe.

Framing errors never hang and never kill the process: a truncated,
oversized or non-JSON frame raises :class:`ProtocolError` (or
:class:`ConnectionClosed` at clean EOF) and the server drops only that
connection.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterator, Optional

from repro.common.errors import ReproError
from repro.service.result import SHED

PROTOCOL_VERSION = 2

#: Hard ceiling on one frame's payload; a length prefix past this is a
#: corrupt or hostile stream, not a big result (rows are chunked).
MAX_FRAME_BYTES = 32 << 20

_HEADER = struct.Struct(">I")

FRAME_HELLO = "hello"
FRAME_QUERY = "query"
FRAME_ROWS = "rows"
FRAME_SUMMARY = "summary"
FRAME_ERROR = "error"
FRAME_SHED = "shed"
FRAME_SHUTDOWN = "shutdown"
FRAME_STATS = "stats"
FRAME_PROCLIST = "proclist"
FRAME_PROFILE = "profile"
FRAME_HEALTH = "health"

#: Introspection request/response frames (version 2); the server
#: answers these on the handler thread, off the dispatcher path.
ADMIN_FRAMES = frozenset((
    FRAME_STATS, FRAME_PROCLIST, FRAME_PROFILE, FRAME_HEALTH,
))

FRAME_TYPES = frozenset((
    FRAME_HELLO, FRAME_QUERY, FRAME_ROWS, FRAME_SUMMARY, FRAME_ERROR,
    FRAME_SHED, FRAME_SHUTDOWN,
)) | ADMIN_FRAMES

#: The kinds a query is answered with; ``net.frames`` counts these on
#: write (every other kind is counted where it is read).
REPLY_FRAMES = frozenset((FRAME_ROWS, FRAME_SUMMARY, FRAME_SHED, FRAME_ERROR))

#: Rows per ``rows`` frame: small enough that a slow consumer's
#: backpressure engages quickly, large enough to amortise framing.
ROWS_PER_FRAME = 512

#: Encoded bytes the server's writer gathers before it writes.  A
#: constant, not a setting: it only has to be far above a small reply
#: (so ``rows`` + ``summary`` leave as one segment) and far below a
#: large one (so a wide result still streams and a slow consumer never
#: has more than this plus a frame or two buffered against it).
SEND_BUFFER_BYTES = 64 << 10


class ProtocolError(ReproError):
    """A malformed frame: bad length, bad JSON, bad shape."""


class ConnectionClosed(ReproError):
    """The peer closed the stream (mid-frame closes carry detail)."""


def encode_frame(frame: Dict) -> bytes:
    """Serialise one frame dict to its wire bytes."""
    frame_type = frame.get("type")
    if frame_type not in FRAME_TYPES:
        raise ProtocolError("unknown frame type %r" % (frame_type,))
    payload = json.dumps(frame, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte frame ceiling"
            % (len(payload), MAX_FRAME_BYTES)
        )
    return _HEADER.pack(len(payload)) + payload


def reply_frames(qid, request) -> Iterator[Dict]:
    """The frames that answer one settled
    :class:`~repro.service.query.Request`: ``rows`` chunks then
    ``summary``, or one ``shed``, or one ``error``."""
    result = request.result
    if result is None:
        yield {"type": FRAME_ERROR, "id": qid, "message": request.error}
        return
    payload = result.summary_payload()
    if request.error is not None:
        yield {
            "type": FRAME_ERROR, "id": qid, "message": request.error,
            "result": payload,
        }
    elif result.status == SHED:
        yield {
            "type": FRAME_SHED, "id": qid, "reason": result.reason,
            "retry_after_s": request.retry_after_s, "result": payload,
        }
    else:
        # Sliced straight from the result: ``json.dumps`` writes a
        # tuple as an array, so no list-of-lists copy is made first.
        rows = result.rows
        for offset in range(0, len(rows), ROWS_PER_FRAME):
            yield {
                "type": FRAME_ROWS, "id": qid,
                "rows": rows[offset:offset + ROWS_PER_FRAME],
            }
        yield {"type": FRAME_SUMMARY, "id": qid, "result": payload}


def read_frame(stream, max_frame: int = MAX_FRAME_BYTES) -> Dict:
    """Read one frame from a binary file-like object (``.read(n)``).

    Sockets pass their ``makefile("rb")``; tests pass ``io.BytesIO``.
    Raises :class:`ConnectionClosed` on clean EOF before a frame
    starts, and :class:`ProtocolError` for every malformed case —
    truncated header, truncated payload, oversized length, non-JSON
    bytes, or a JSON payload that is not a typed object.
    """
    header = stream.read(_HEADER.size)
    if not header:
        raise ConnectionClosed("connection closed between frames")
    if len(header) < _HEADER.size:
        raise ProtocolError(
            "truncated frame header: %d of %d bytes"
            % (len(header), _HEADER.size)
        )
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise ProtocolError(
            "frame length %d exceeds the %d-byte ceiling"
            % (length, max_frame)
        )
    payload = stream.read(length) if length else b""
    if len(payload) < length:
        raise ProtocolError(
            "truncated frame payload: %d of %d bytes"
            % (len(payload), length)
        )
    try:
        frame = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("frame payload is not JSON: %s" % exc) from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            "frame payload must be a JSON object; got %s"
            % type(frame).__name__
        )
    if frame.get("type") not in FRAME_TYPES:
        raise ProtocolError("unknown frame type %r" % (frame.get("type"),))
    return frame


def hello_frame(tenant: Optional[str] = None, server: bool = False) -> Dict:
    frame = {"type": FRAME_HELLO, "version": PROTOCOL_VERSION}
    if server:
        frame["server"] = "repro"
    else:
        frame["tenant"] = tenant
    return frame


def check_hello(frame: Dict, side: str) -> Dict:
    """Validate the peer's hello; raises :class:`ProtocolError`."""
    if frame.get("type") != FRAME_HELLO:
        raise ProtocolError(
            "expected a hello frame from the %s; got %r"
            % (side, frame.get("type"))
        )
    version = frame.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "protocol version mismatch: %s speaks %r, this side speaks %d"
            % (side, version, PROTOCOL_VERSION)
        )
    return frame
