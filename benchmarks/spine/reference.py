"""What every reply is checked against.

Before any timing, each distinct query text of the workload is run once
through an :class:`~repro.client.InProcessClient` (baseline strategy, no
caches, no memory budget); every socket reply must hold the same row
multiset — spilling reorders rows, so order is not compared, and it
reorders the additions of floating-point aggregates, so a reply that
is not bit-equal is compared again up to rounding.  Every SQL statement
(``wide_scan``'s three, ``point_cached``'s count) is additionally
checked, once, against stdlib ``sqlite3`` loaded from the same catalog:
an oracle this repository did not write.
"""

from __future__ import annotations

import math
import sqlite3
from typing import Dict, Iterable, List, Sequence, Tuple

Fingerprint = Tuple[int, int]

_MASK = (1 << 64) - 1

_SQLITE_TYPES = {"int": "INTEGER", "float": "REAL"}


def fingerprint(rows: Iterable[Sequence]) -> Fingerprint:
    """Order-insensitive ``(count, hash-sum)`` of a row multiset.

    ``hash`` is salted per process for strings, which is fine: the
    reference and the replies are fingerprinted in the same process.
    Cheap enough (~0.1 us/value) to run between timed queries.
    """
    count = 0
    total = 0
    for row in rows:
        count += 1
        total += hash(tuple(row))
    return count, total & _MASK


class Expected:
    """The reference reply of one query text."""

    __slots__ = ("mark", "rows")

    def __init__(self, rows):
        self.rows = sorted(rows, key=_sort_key)
        self.mark = fingerprint(self.rows)

    def matches(self, rows) -> bool:
        """Exact multiset equality, or — when spilling reordered a
        floating-point aggregate's additions — equality up to rounding."""
        if fingerprint(rows) == self.mark:
            return True
        rows = sorted(rows, key=_sort_key)
        return len(rows) == len(self.rows) and all(
            len(ours) == len(theirs) and all(map(_close, ours, theirs))
            for ours, theirs in zip(rows, self.rows)
        )


def _sort_key(row):
    return tuple((value is None, value) for value in row)


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def expected_replies(catalog, texts: Iterable[str]) -> Dict[str, Expected]:
    """Reference reply of every distinct query text."""
    from repro.client import InProcessClient
    from repro.service import ServiceConfig

    config = ServiceConfig(
        strategy="baseline", result_cache=False, aip_cache=False,
    )
    expected = {}
    with InProcessClient(catalog, config) as client:
        for text in dict.fromkeys(texts):
            expected[text] = Expected(client.query(text).require().rows)
    return expected


def sqlite_mismatches(
    catalog, expected: Dict[str, Expected],
) -> List[str]:
    """Run each statement of ``expected`` on sqlite3 over the same
    tables; returns a description of every disagreement."""
    statements = list(expected)
    words = set(" ".join(statements).replace(",", " ").split())
    db = sqlite3.connect(":memory:")
    try:
        for name in catalog.table_names():
            if name not in words:
                continue
            table = catalog.table(name)
            attributes = table.schema.attributes
            db.execute("create table %s (%s)" % (name, ", ".join(
                "%s %s" % (a.name, _SQLITE_TYPES.get(a.type, "TEXT"))
                for a in attributes
            )))
            db.executemany(
                "insert into %s values (%s)"
                % (name, ", ".join("?" * len(attributes))),
                table.rows,
            )
        problems = []
        for statement in statements:
            theirs = db.execute(statement).fetchall()
            if not expected[statement].matches(theirs):
                problems.append(
                    "sqlite3 disagrees on %r: %d rows here, %d there"
                    % (statement, len(expected[statement].rows), len(theirs))
                )
        return problems
    finally:
        db.close()
