"""The wire protocol: versioned, length-prefixed frames.

One frame on the wire is a 4-byte big-endian length and then exactly
that many payload bytes.  Every frame but ``rows`` is a UTF-8 JSON
object with a mandatory "type" key::

    +----------------+----------------------------------------+
    | 4-byte big-    | UTF-8 JSON object, exactly `length`    |
    | endian length  | bytes, with a mandatory "type" key     |
    +----------------+----------------------------------------+

A ``rows`` frame (version 3) carries one chunk of result rows column
by column.  Its payload opens with the marker byte ``0x01``, which
cannot begin a JSON object, so the first payload byte tells the two
layouts apart::

    +------+----------------+-----------------+---------------------+
    | 0x01 | 4-byte big-    | UTF-8 JSON head | one blob per typed  |
    |      | endian head    | {type, id, n,   | column, in column   |
    |      | length         |  w, cols}       | order, 8*n bytes    |
    +------+----------------+-----------------+---------------------+

``n`` is the chunk's row count and ``w`` its width; ``cols`` holds one
entry per column:

``"q"``
    every value is exactly ``int`` and fits int64: a blob of ``n``
    little-endian signed 8-byte integers.
``"d"``
    every value is exactly ``float``: a blob of ``n`` little-endian
    IEEE-754 doubles (``-0.0``, ``nan`` and ``inf`` keep their bits).
``[...]``
    any other column (str, bool, None, mixed types, ints past int64),
    and every column of a chunk under ``INLINE_ROWS`` rows: the ``n``
    values inline as a JSON list, under the JSON rules every other
    frame uses.

The payload is exactly marker + length + head + blobs: a short or long
blob, trailing bytes, ``n``/``w`` that disagree with ``cols``, an
unknown column kind or rows of differing widths are each a
:class:`ProtocolError`, on read or on write.  :func:`read_frame`
returns the chunk as ``{"type": "rows", "id": ..., "rows": [tuple,
...]}``, each value of the type it was written with.

Frame types (``PROTOCOL_VERSION`` = 3):

``hello``
    First frame in each direction.  Client: ``{"type": "hello",
    "version": 3, "tenant": <str|null>}``.  Server echoes its version
    and identity; a version mismatch is answered with ``error`` and
    the connection closes.
``query``
    ``{"type": "query", "id": <int>, "text": <sql-or-workload-id>,
    "strategy": <str|null>, "label": <str|null>}``.  ``id`` is the
    client's correlation key, echoed on every response frame.
``rows``
    Zero or more per query, each at most ``ROWS_PER_FRAME`` rows in
    the column layout above — result rows in chunks, so a slow
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
oversized, non-JSON or too deeply nested frame, or a malformed
``rows`` chunk, raises :class:`ProtocolError` (or
:class:`ConnectionClosed` at clean EOF) and the server drops only that
connection.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import repeat
from operator import is_
from typing import Dict, Iterator, Optional

from repro.common.errors import ReproError
from repro.service.result import SHED

PROTOCOL_VERSION = 3

#: Hard ceiling on one frame's payload; a length prefix past this is a
#: corrupt or hostile stream, not a big result (rows are chunked).
MAX_FRAME_BYTES = 32 << 20

_HEADER = struct.Struct(">I")

#: Marker byte + head length that open a ``rows`` payload.
_ROWS_HEAD = struct.Struct(">BI")
ROWS_MARKER = 0x01

#: Compact JSON, one encoder for every frame.
_dumps = json.JSONEncoder(separators=(",", ":")).encode

#: The exact types that travel as 8-byte blobs, and their array codes.
_BLOB_KINDS = {int: "q", float: "d"}
_BLOB_CODES = tuple(_BLOB_KINDS.values())
_BIG_ENDIAN = sys.byteorder == "big"

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

#: A ``rows`` chunk of fewer rows than this sends every column inline:
#: on a reply of a few rows, blobs cost more than the text they save.
INLINE_ROWS = 16

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
    if frame_type == FRAME_ROWS:
        payload = _encode_rows(frame)
    else:
        payload = _dumps(frame).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame of %d bytes exceeds the %d-byte frame ceiling"
            % (len(payload), MAX_FRAME_BYTES)
        )
    return _HEADER.pack(len(payload)) + payload


def _encode_rows(frame: Dict) -> bytes:
    """A ``rows`` frame's payload in the column layout."""
    rows = frame.get("rows")
    if not isinstance(rows, (list, tuple)):
        raise ProtocolError("a rows frame needs a list of rows")
    try:
        columns = list(zip(*rows, strict=True))
    except (TypeError, ValueError):
        raise ProtocolError(
            "rows of a chunk must be sequences of one width"
        ) from None
    if rows and not columns:
        raise ProtocolError("rows of a chunk must have at least one column")
    kinds, blobs = [], []
    for column in columns:
        code = _blob_code(column) if len(rows) >= INLINE_ROWS else None
        if code is not None:
            try:
                blob = array(code, column)
            except OverflowError:
                code = None  # an int past int64 travels inline
            else:
                if _BIG_ENDIAN:
                    blob.byteswap()
                blobs.append(blob)
        kinds.append(column if code is None else code)
    head = _dumps({
        "type": FRAME_ROWS, "id": frame.get("id"), "n": len(rows),
        "w": len(columns), "cols": kinds,
    }).encode("utf-8")
    return b"".join(
        [_ROWS_HEAD.pack(ROWS_MARKER, len(head)), head, *blobs]
    )


def _blob_code(column) -> Optional[str]:
    """The array code a column travels as, or None to send it inline.

    The check is on exact types, value by value: ``array("d")`` would
    take an int (and ``array("q")`` a bool) and hand back another type.
    """
    kind = type(column[0])
    code = _BLOB_KINDS.get(kind)
    if code is not None and all(map(is_, map(type, column), repeat(kind))):
        return code
    return None


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


def read_frame(stream) -> Dict:
    """Read one frame from a binary file-like object (``.read(n)``).

    Sockets pass their ``makefile("rb")``; tests pass ``io.BytesIO``.
    Raises :class:`ConnectionClosed` on clean EOF before a frame
    starts, and :class:`ProtocolError` for every malformed case —
    truncated header, truncated payload, oversized length, non-JSON
    or too deeply nested bytes, a JSON payload that is not a typed
    object, or a ``rows`` chunk that breaks the column layout.
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
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame length %d exceeds the %d-byte ceiling"
            % (length, MAX_FRAME_BYTES)
        )
    payload = stream.read(length) if length else b""
    if len(payload) < length:
        raise ProtocolError(
            "truncated frame payload: %d of %d bytes"
            % (len(payload), length)
        )
    if payload and payload[0] == ROWS_MARKER:
        return _decode_rows(payload)
    frame = _json_object(payload, "frame payload")
    if frame.get("type") not in FRAME_TYPES:
        raise ProtocolError("unknown frame type %r" % (frame.get("type"),))
    if frame["type"] == FRAME_ROWS:
        raise ProtocolError("a rows frame must use the column layout")
    return frame


def _json_object(data: bytes, what: str) -> Dict:
    try:
        value = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # undecodable UTF-8 or malformed JSON
        raise ProtocolError("%s is not JSON: %s" % (what, exc)) from None
    except RecursionError:
        raise ProtocolError("%s is nested too deeply" % what) from None
    if not isinstance(value, dict):
        raise ProtocolError(
            "%s must be a JSON object; got %s" % (what, type(value).__name__)
        )
    return value


def _decode_rows(payload: bytes) -> Dict:
    """The chunk a column-layout ``rows`` payload carries.

    Every size is checked against the payload before anything is
    allocated for it, so a lying head costs no more than its frame.
    """
    if len(payload) < _ROWS_HEAD.size:
        raise ProtocolError("truncated rows head")
    _, head_length = _ROWS_HEAD.unpack_from(payload)
    start = _ROWS_HEAD.size + head_length
    if start > len(payload):
        raise ProtocolError(
            "rows head of %d bytes overruns its %d-byte frame"
            % (head_length, len(payload))
        )
    head = _json_object(payload[_ROWS_HEAD.size:start], "rows head")
    n, w, kinds = head.get("n"), head.get("w"), head.get("cols")
    if head.get("type") != FRAME_ROWS:
        raise ProtocolError("rows head has type %r" % (head.get("type"),))
    if type(n) is not int or n < 0 or type(w) is not int \
            or type(kinds) is not list or len(kinds) != w:
        raise ProtocolError("rows head n/w/cols disagree")
    if n and not w:
        raise ProtocolError("rows of a chunk must have at least one column")
    blob_bytes = 8 * n
    blob_count = sum(map(_BLOB_CODES.__contains__, kinds))
    if start + blob_count * blob_bytes != len(payload):
        raise ProtocolError(
            "rows blobs: %d bytes for %d column(s) of %d rows, need %d"
            % (len(payload) - start, blob_count, n, blob_count * blob_bytes)
        )
    columns = []
    for kind in kinds:
        if type(kind) is list and len(kind) == n:
            column = kind
        elif kind in _BLOB_CODES:
            column = array(kind)
            column.frombytes(payload[start:start + blob_bytes])
            if _BIG_ENDIAN:
                column.byteswap()
            start += blob_bytes
        else:
            raise ProtocolError(
                "rows column is neither a blob kind nor %d inline values"
                % n
            )
        columns.append(column)
    return {"type": FRAME_ROWS, "id": head.get("id"),
            "rows": list(zip(*columns))}


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
