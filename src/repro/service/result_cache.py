"""Result cache keyed by plan fingerprint.

The engine is deterministic over a fixed catalog — the same logical
plan always yields the same rows regardless of execution strategy — so
a completed query's rows can be replayed for any later plan with the
same structural signature (:mod:`repro.service.fingerprint`).  The
cache belongs to one :class:`~repro.service.service.QueryService` and
therefore to one catalog; it never outlives the data it summarises.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.sizing import rows_nbytes
from repro.data.schema import Schema
from repro.service.lru import LruDict

#: Most results a :class:`ResultCache` holds.
MAX_ENTRIES = 128
#: Resident-byte cap on cached result rows (64 MB).
MAX_BYTES = 64 << 20


class CachedResult:
    """Rows plus the schema and original cost of producing them."""

    __slots__ = ("rows", "schema", "produced_in_seconds")

    def __init__(
        self, rows: List[Tuple], schema: Schema, produced_in_seconds: float
    ):
        self.rows = rows
        self.schema = schema
        #: Virtual seconds until the original execution finished on its
        #: batch clock.  In a concurrent batch this includes co-running
        #: queries' interleaved work, so it is an *upper bound* on the
        #: solo cost a hit avoids.
        self.produced_in_seconds = produced_in_seconds

    def byte_size(self) -> int:
        """Rough resident bytes of the cached rows."""
        return rows_nbytes(self.schema, len(self.rows))


class ResultCache:
    """Maps plan signatures to completed results."""

    def __init__(self):
        self._entries = LruDict(
            MAX_ENTRIES,
            byte_size_of=lambda entry: entry.byte_size(),
            max_bytes=MAX_BYTES,
        )
        self.hits = 0
        self.misses = 0
        self.seconds_saved = 0.0

    def lookup(
        self, signature: str, count_miss: bool = True
    ) -> Optional[CachedResult]:
        """Find a cached result (refreshing LRU recency on a hit).
        ``count_miss=False`` suppresses miss accounting for re-probes
        of a query already counted once (the service re-probes queued
        queries every dispatch round)."""
        entry = self._entries.get(signature)
        if entry is None:
            if count_miss:
                self.misses += 1
            return None
        self.hits += 1
        self.seconds_saved += entry.produced_in_seconds
        return entry

    def store(
        self, signature: str, rows: List[Tuple], schema: Schema,
        produced_in_seconds: float,
    ) -> None:
        if signature in self._entries:
            return
        # Copy: callers may mutate their result's row list; the cache
        # must never serve (or suffer) those mutations.
        self._entries.put(
            signature, CachedResult(list(rows), schema, produced_in_seconds)
        )

    def __len__(self) -> int:
        return len(self._entries)

    def byte_size(self) -> int:
        """Rough resident bytes of all cached result rows."""
        return self._entries.byte_size()

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "bytes": self.byte_size(),
            "hits": self.hits,
            "misses": self.misses,
            "seconds_saved": self.seconds_saved,
        }
