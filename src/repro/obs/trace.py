"""Structured trace collection on the virtual clock.

A :class:`Tracer` records *spans* (work with a duration) and *instant
events* (point occurrences), both stamped in integer virtual-clock
**ticks** (1 tick = 1 ps; see :mod:`repro.exec.metrics`).  Hook sites
throughout the engine, AIP layer, storage governor and service layer
call the tracer only after an ``is None`` guard, so the disabled path
costs one attribute load per hook and execution stays bit-identical to
an untraced build.

The event taxonomy (DESIGN.md section 9):

========================  ====  =======================================
name                      ph    recorded at
========================  ====  =======================================
``query``                 X     one engine run, start→finish
``concurrent-batch``      X     one shared-clock multi-query loop
``service.batch``         X     one dispatched service batch
``drive:<scan>``          X     one drive step, named for the scan
                                popped first (a merged arrival run on
                                the page path; one tuple on the row
                                path)
``emit:<op>``             i     an operator forwarding an output batch
``page:<op>``             i     a column-page kernel invocation (rows
                                in, rows selected)
``flush:<op>``            i     an operator completing its output
``aip.publish``           i     a completed AIP set published
``aip.inject``            i     a semijoin filter registered on a port
``aip.probe:<op>``        i     a batch probed against injected filters
``admission.<decision>``  i     admit / queue / shed
``sched.pick``            i     a scheduler ordering one ready set
``cache.result.<h/m>``    i     result-cache hit / first miss
``governor.lease``        i     a component opening a byte account
``governor.evict``        i     buffer-pool eviction pass (freed bytes)
``governor.spill``        i     spill I/O charged (bytes, page moves)
``governor.over_budget``  i     a grow still over budget post-reclaim
``partition.fanout``      i     a scan fanned out across partitions
========================  ====  =======================================

Export is Chrome-trace JSON (the array-of-events form inside an object,
which both ``chrome://tracing`` and Perfetto load).  The ``ts``/``dur``
fields carry raw virtual ticks; the trace metadata names the unit so a
reader knows 1 displayed microsecond = 1 virtual tick = 1 ps.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional

#: Phases used in exported events.
PH_COMPLETE = "X"
PH_INSTANT = "i"

#: Default retention: a runaway per-tuple trace must not consume
#: unbounded memory.  The buffer is a *ring* — a long-lived server
#: keeps the most recent ``max_events`` events and counts what it
#: evicted, instead of freezing the trace at hour one and silently
#: discarding everything after.
MAX_EVENTS = 1_000_000


class Tracer:
    """Collects trace events stamped in virtual-clock ticks.

    Retention is a bounded ring: once ``max_events`` events are
    buffered, each new event evicts the oldest and bumps
    :attr:`dropped` (surfaced as the ``trace.dropped_events`` counter
    in server stats), so a multi-hour ``repro serve`` degrades to a
    sliding window rather than a truncated head.
    """

    __slots__ = ("events", "max_events", "dropped", "last_ts", "offset")

    def __init__(self, max_events: int = MAX_EVENTS):
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        #: Raw events as ``(ph, name, cat, ts, dur, args)`` tuples,
        #: oldest first; a full ring evicts from the front.
        self.events: Deque[tuple] = deque(maxlen=max_events)
        self.max_events = max_events
        #: Events evicted from the ring after it filled.
        self.dropped = 0
        #: Largest timestamp seen; hook sites with no clock at hand
        #: (lease creation during operator construction) reuse it via
        #: :meth:`instant_now`.
        self.last_ts = 0
        #: Added to every ``ts`` passed to :meth:`instant`/:meth:`
        #: complete`.  Each batch's engine clock restarts at zero; the
        #: service sets this to its own clock before dispatching a
        #: batch so all batches land on one timeline.
        self.offset = 0

    def _record(self, ph, name, cat, ts, dur, args) -> None:
        if ts > self.last_ts:
            self.last_ts = ts
        if len(self.events) >= self.max_events:
            self.dropped += 1  # the append below evicts the oldest
        self.events.append((ph, name, cat, ts, dur, args))

    def instant(
        self, name: str, cat: str, ts: int, args: Optional[Dict] = None
    ) -> None:
        """Record a point event at ``ts`` virtual ticks (plus offset)."""
        self._record(PH_INSTANT, name, cat, ts + self.offset, 0, args)

    def instant_now(
        self, name: str, cat: str, args: Optional[Dict] = None
    ) -> None:
        """Instant at the trace's high-water mark, for hook sites with
        no query clock at hand (e.g. lease creation during operator
        construction; offset is already folded into ``last_ts``)."""
        self._record(PH_INSTANT, name, cat, self.last_ts, 0, args)

    def complete(
        self,
        name: str,
        cat: str,
        ts: int,
        dur: int,
        args: Optional[Dict] = None,
    ) -> None:
        """Record a span covering ``[ts, ts + dur]`` virtual ticks."""
        self._record(PH_COMPLETE, name, cat, ts + self.offset, dur, args)

    def replay(self, events, offset: int = 0) -> None:
        """Fold another tracer's raw event tuples onto this timeline.

        Used by the parallel service to merge trace events a pool
        worker collected on its own zero-based query clock: ``offset``
        shifts them to where the batch sits on the service timeline.
        ``self.offset`` is deliberately not applied on top — the caller
        computed the placement already.
        """
        for ph, name, cat, ts, dur, args in events:
            self._record(ph, name, cat, ts + offset, dur, args)

    def __len__(self) -> int:
        return len(self.events)

    # -- export ----------------------------------------------------------

    def to_chrome(self) -> Dict:
        """The Chrome-trace/Perfetto JSON object for this trace."""
        trace_events = []
        for ph, name, cat, ts, dur, args in self.events:
            event = {
                "name": name,
                "cat": cat,
                "ph": ph,
                "ts": ts,
                "pid": 0,
                "tid": 0,
            }
            if ph == PH_COMPLETE:
                event["dur"] = dur
            else:
                event["s"] = "g"  # global instant scope
            if args:
                event["args"] = dict(args)
            trace_events.append(event)
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "virtual ticks (1 trace us = 1 tick = 1 ps)",
                "dropped_events": self.dropped,
            },
        }

    def write_chrome(self, path: str) -> None:
        """Serialise :meth:`to_chrome` to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh, indent=1, sort_keys=True)
            fh.write("\n")


#: Phases a valid exported event may carry ("M" = metadata, which other
#: tools emit; we accept it so traces can be post-processed and merged).
_VALID_PHASES = {"X", "i", "I", "C", "M", "B", "E"}


def validate_chrome_trace(payload) -> List[str]:
    """Schema-check one Chrome-trace JSON object.

    Returns a list of human-readable problems; an empty list means the
    trace is well-formed **and non-empty** — an empty ``traceEvents``
    array is reported as an error, because the CI smoke job exists to
    catch instrumentation silently recording nothing.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object with 'traceEvents'"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    if not events:
        return ["'traceEvents' is empty: the trace recorded nothing"]
    for index, event in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(event, dict):
            errors.append("%s: not an object" % where)
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            errors.append("%s: missing or empty 'name'" % where)
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            errors.append("%s: bad phase %r" % (where, ph))
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            errors.append("%s: 'ts' must be a non-negative number" % where)
        if ph == "X":
            dur = event.get("dur")
            if (
                not isinstance(dur, (int, float))
                or isinstance(dur, bool)
                or dur < 0
            ):
                errors.append(
                    "%s: complete event needs non-negative 'dur'" % where
                )
        for field in ("pid", "tid"):
            value = event.get(field)
            if not isinstance(value, int) or isinstance(value, bool):
                errors.append("%s: '%s' must be an integer" % (where, field))
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            errors.append("%s: 'args' must be an object" % where)
        if len(errors) >= 20:
            errors.append("... further errors suppressed")
            break
    return errors
