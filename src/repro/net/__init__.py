"""The network front door: wire protocol + threaded socket server.

``repro.net.protocol`` defines the versioned, length-prefixed frame
format both ends speak (JSON frames, result rows in column chunks); ``repro.net.server`` is the threaded
:class:`ReproServer` that serves one long-lived
:class:`~repro.service.QueryService` to many concurrent socket
clients.  The matching client lives in :mod:`repro.client`.
"""

from repro.net.protocol import (
    FRAME_ERROR, FRAME_HELLO, FRAME_QUERY, FRAME_ROWS, FRAME_SHED,
    FRAME_SHUTDOWN, FRAME_SUMMARY, FRAME_TYPES, MAX_FRAME_BYTES,
    PROTOCOL_VERSION, ROWS_PER_FRAME, ConnectionClosed, ProtocolError,
    check_hello, encode_frame, hello_frame, read_frame,
)
from repro.net.server import ReproServer, serve

__all__ = [
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES", "ROWS_PER_FRAME",
    "FRAME_HELLO", "FRAME_QUERY", "FRAME_ROWS", "FRAME_SUMMARY",
    "FRAME_ERROR", "FRAME_SHED", "FRAME_SHUTDOWN", "FRAME_TYPES",
    "ConnectionClosed", "ProtocolError",
    "encode_frame", "read_frame", "hello_frame", "check_hello",
    "ReproServer", "serve",
]
