"""Scripted query streams for the service layer.

A workload stream is a list of :class:`WorkloadItem`\\ s — each a query
(a Table I workload id or SQL text), a virtual arrival time, and an
optional per-query strategy override.  Streams come from text scripts
(one query per line) or inline comma-separated id lists, so the CLI's
``workload`` command and the benchmarks replay identical traffic.

Script grammar, one item per line::

    # comment                      blank lines and comments are skipped
    Q1A                            workload id, arrives at t=0
    Q2A *3                         repeat: three arrivals of Q2A
    @0.5 Q3A                       arrival time in virtual seconds
    @1.0 select count(*) as n from part       anything else is SQL
    Q1A !costbased                 per-query strategy override
    Q1A %acme                      fair-share tenant tag (dispatch
                                   interleaves admission across
                                   tenants)
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.workloads.registry import QUERIES

QID = "qid"
SQL = "sql"

_QID_LINE = re.compile(
    r"^(?P<qid>[A-Za-z]\w*)"
    r"(?:\s*\*\s*(?P<repeat>\d+))?"
    r"(?:\s+!(?P<strategy>[\w-]+))?"
    r"(?:\s+%(?P<tenant>[\w-]+))?$"
)
_ARRIVAL = re.compile(r"^@(?P<t>\d+(?:\.\d+)?)\s+(?P<body>.+)$")


class WorkloadItem:
    """One query arrival in a stream."""

    __slots__ = ("kind", "text", "arrival", "strategy", "label", "tenant")

    def __init__(
        self,
        kind: str,
        text: str,
        arrival: float = 0.0,
        strategy: Optional[str] = None,
        label: Optional[str] = None,
        tenant: Optional[str] = None,
    ):
        if kind not in (QID, SQL):
            raise ValueError("kind must be %r or %r" % (QID, SQL))
        self.kind = kind
        self.text = text
        self.arrival = arrival
        #: Per-item strategy override (None = the service default).
        self.strategy = strategy
        self.label = label or (text if kind == QID else "sql")
        #: Fair-share class a parallel service interleaves admission by.
        self.tenant = tenant

    def __repr__(self) -> str:
        return "WorkloadItem(%s %r @%g)" % (self.kind, self.text, self.arrival)


def _parse_line(line: str) -> List[WorkloadItem]:
    arrival = 0.0
    m = _ARRIVAL.match(line)
    if m:
        arrival = float(m.group("t"))
        line = m.group("body").strip()
    m = _QID_LINE.match(line)
    if m and m.group("qid") in QUERIES:
        qid = m.group("qid")
        repeat = int(m.group("repeat") or 1)
        strategy = m.group("strategy")
        tenant = m.group("tenant")
        return [
            WorkloadItem(QID, qid, arrival, strategy, tenant=tenant)
            for _ in range(repeat)
        ]
    return [WorkloadItem(SQL, line, arrival)]


def parse_workload(text: str) -> List[WorkloadItem]:
    """Parse a workload script into a stream of items."""
    items: List[WorkloadItem] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        items.extend(_parse_line(line))
    return items


def parse_inline(spec: str) -> List[WorkloadItem]:
    """Parse an inline stream: either comma-separated workload-id terms
    (``"Q1A,Q2A*3"``) or, failing that, a single SQL query."""
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if parts and all(
        _QID_LINE.match(p) and _QID_LINE.match(p).group("qid") in QUERIES
        for p in parts
    ):
        items: List[WorkloadItem] = []
        for part in parts:
            items.extend(_parse_line(part))
        return items
    return [WorkloadItem(SQL, spec.strip())]
