"""In-memory spans recorded by the harness around calls into each layer.

A span is ``{name, start_ns, end_ns, parent, qid}``: ``parent`` is the
index of the span that caused it (None for a root) and ``qid`` ties the
spans of one query together.  Spans are kept in a list and written out
once, when the benchmark ends; nothing under ``src/`` records them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class SpanLog:
    """An append-only span list with an implicit parent stack.

    Not thread-safe: the traced socket pass gives each client thread
    its own log and merges them afterwards with :meth:`extend`.
    """

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, qid: int) -> Iterator[int]:
        """Time the enclosed block; yields the new span's index."""
        index = len(self.spans)
        record = {
            "name": name, "start_ns": 0, "end_ns": 0,
            "parent": self._stack[-1] if self._stack else None,
            "qid": qid,
        }
        self.spans.append(record)
        self._stack.append(index)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield index
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def extend(self, other: "SpanLog") -> None:
        """Append another log's spans, re-basing their parent links."""
        base = len(self.spans)
        for record in other.spans:
            merged = dict(record)
            if merged["parent"] is not None:
                merged["parent"] += base
            self.spans.append(merged)

    def total_ns(self, name: str) -> int:
        return sum(
            s["end_ns"] - s["start_ns"] for s in self.spans
            if s["name"] == name
        )

    def self_ns(self, index: int) -> int:
        """Self time of span ``index``: its duration minus the part of
        its interval that its direct children cover."""
        span = self.spans[index]
        children = [
            (s["start_ns"], s["end_ns"]) for s in self.spans
            if s["parent"] == index
        ]
        return self_time_ns(span["start_ns"], span["end_ns"], children)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def self_time_ns(start_ns: int, end_ns: int, children) -> int:
    """``[start, end)`` minus the union of the child intervals.

    Children may overlap one another and may stick out of the parent
    (clock skew between threads); overlap is counted once and the parts
    outside the parent are ignored.
    """
    covered = 0
    cursor = start_ns
    for child_start, child_end in sorted(children):
        child_start = max(child_start, cursor)
        child_end = min(child_end, end_ns)
        if child_end > child_start:
            covered += child_end - child_start
            cursor = child_end
    return (end_ns - start_ns) - covered


def mean_us(total_ns: int, count: int) -> float:
    """Mean microseconds per query (0.0 when nothing ran)."""
    return total_ns / 1000.0 / count if count else 0.0
