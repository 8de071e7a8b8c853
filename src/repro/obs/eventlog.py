"""Structured lifecycle event log + slow-query log, as append-only JSONL.

Traces are for engineers replaying a run; the event log is for
operators tailing a file.  Every service lifecycle decision — admit,
shed (admission / SLO / quota), spill pressure, worker crash — is one
JSON object on one line, so ``tail -f | jq`` works and log shippers
ingest it without a parser.  Queries whose latency crosses the
configured threshold additionally get a ``slow_query`` entry embedding
the retained profile and its EXPLAIN-ANALYZE-style rendering
(:meth:`repro.obs.profiles.QueryProfile.render`), which is the
"why was this slow" artifact five minutes after the fact.

Rotation is by size: when an append would push the file past
:data:`MAX_BYTES` the current file is renamed to ``<path>.1`` (replacing
the previous generation) and a fresh file is started — bounded disk,
and the most recent events are always in ``<path>``.

Every entry carries ``ts`` (wall-clock epoch seconds, for correlating
with the outside world) and, when the emitter supplies it, ``clock``
(service virtual seconds, for correlating with traces and profiles).
Wall time never feeds back into execution, so results stay
bit-identical with the log enabled.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, Optional

#: Rotation threshold (bytes) of every log.
MAX_BYTES = 4 * 1024 * 1024


class EventLog:
    """Append-only JSONL sink with size-based rotation."""

    def __init__(self, path: str):
        self.path = path
        self.rotations = 0
        self.events_written = 0
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")
        self._size = self._fh.tell()

    def emit(self, event: str, clock: Optional[float] = None,
             **fields) -> None:
        """Append one event; ``fields`` must be JSON-serialisable."""
        entry: Dict = {"event": event, "ts": time.time()}
        if clock is not None:
            entry["clock"] = clock
        entry.update(fields)
        line = json.dumps(entry, sort_keys=True) + "\n"
        encoded = len(line.encode("utf-8"))
        with self._lock:
            if self._fh is None:
                return  # closed: late emitters drop silently
            if self._size and self._size + encoded > MAX_BYTES:
                self._rotate()
            self._fh.write(line)
            self._fh.flush()
            self._size += encoded
            self.events_written += 1

    def _rotate(self) -> None:
        # Caller holds the lock.  One rotated generation is kept; the
        # point is bounding disk, not archiving history.
        self._fh.close()
        os.replace(self.path, self.path + ".1")
        self._fh = open(self.path, "a", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_event_log(spec) -> Optional[EventLog]:
    """Coerce a config value into an :class:`EventLog` (or pass one
    through).  ``None`` stays None — the disabled path everywhere is a
    single ``is None`` check, like the tracer's."""
    if spec is None or isinstance(spec, EventLog):
        return spec
    return EventLog(str(spec))
