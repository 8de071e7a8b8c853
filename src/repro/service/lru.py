"""A small LRU mapping shared by the service caches.

Python dicts preserve insertion order, so recency is maintained by
popping and re-inserting on access; eviction drops the oldest entry.
Capacity is bounded two ways: an entry count, and a resident-byte cap
measured through a caller-supplied sizer — the service's whole point is
bounding memory, so its caches must not grow without limit themselves.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable


class LruDict:
    """Insertion-ordered mapping with count- and byte-bounded eviction."""

    def __init__(self, max_entries: int, byte_size_of: Callable,
                 max_bytes: int):
        if max_entries < 1:
            raise ValueError("need max_entries >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._byte_size_of = byte_size_of
        self._entries: Dict = {}
        #: Running byte total, maintained on put/evict so over-cap puts
        #: and stats reads stay O(1) instead of re-summing every entry.
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __iter__(self):
        return iter(self._entries)

    def get(self, key):
        """Return the value (refreshing its recency), or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.pop(key)
            self._entries[key] = entry
        return entry

    def put(self, key, value) -> bool:
        """Insert ``value``, evicting oldest entries to fit the caps;
        returns whether it was stored.

        A value that alone exceeds the byte cap is not stored at all —
        pinning it would violate the cap for the cache's lifetime — and
        any existing entry under the key is left in place."""
        nbytes = self._byte_size_of(value)
        if nbytes > self.max_bytes:
            return False
        existing = self._entries.pop(key, None)
        if existing is not None:
            self._bytes -= self._byte_size_of(existing)
        self._entries[key] = value
        self._bytes += nbytes
        while (
            len(self._entries) > self.max_entries
            or self._bytes > self.max_bytes
        ):
            victim = self._entries.pop(next(iter(self._entries)))
            self._bytes -= self._byte_size_of(victim)
        return True

    def values(self) -> Iterable:
        return self._entries.values()

    def keys(self) -> Iterable:
        return self._entries.keys()

    def byte_size(self) -> int:
        return self._bytes

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
