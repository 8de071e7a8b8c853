"""Process-stable hashing.

Python randomises ``hash()`` for ``str``/``bytes`` per process
(PYTHONHASHSEED), which would make generated data, Bloom filter bit
patterns and therefore benchmark metrics vary run to run.  Everything
that must be reproducible hashes through this module instead.

Numeric types are already hash-stable in CPython; only strings (and
tuples containing them) need translation.
"""

from __future__ import annotations

import zlib
from typing import Hashable


#: Bounded memo for string CRCs.  Summary probes hash the same join-key
#: strings over and over (every injected filter re-keys every arriving
#: tuple), so the encode+CRC pair dominates the probe path; the memo is
#: cleared wholesale at the cap rather than tracking recency, which
#: keeps the hit path to a single dict lookup.
_STR_KEYS: dict = {}
_STR_KEYS_CAP = 1 << 16


def stable_key(value: Hashable) -> Hashable:
    """Map a value to an equal-semantics key whose ``hash()`` is stable
    across processes.  Distinct strings map to distinct-ish CRC32 keys;
    collisions only cost summary precision, never correctness."""
    if type(value) is int:  # the common key type, checked first
        return value
    if isinstance(value, str):
        key = _STR_KEYS.get(value)
        if key is None:
            key = zlib.crc32(value.encode("utf-8"))
            if len(_STR_KEYS) >= _STR_KEYS_CAP:
                _STR_KEYS.clear()
            _STR_KEYS[value] = key
        return key
    if isinstance(value, bytes):
        return zlib.crc32(value)
    if isinstance(value, tuple):
        return tuple(stable_key(v) for v in value)
    return value


def stable_label_seed(seed: int, label: str) -> int:
    """Derive a child seed from ``(seed, label)`` deterministically."""
    mixed = zlib.crc32(label.encode("utf-8"), seed & 0xFFFFFFFF)
    # Spread beyond 32 bits so distinct labels land far apart.
    return (mixed * 0x9E3779B97F4A7C15) & 0x7FFFFFFFFFFFFFFF
