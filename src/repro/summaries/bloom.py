"""Bloom filters.

The paper's implementation "only employs Bloom filters ... our Bloom
filters use one hash function and are sized for a 5% false positive
rate" (Section VI).  We default to the same configuration but support
multiple hash functions (``n_hashes``).

Filters of equal geometry (bit count, hash count, seed) can be merged:
bitwise **intersection** tightens two filters over the same key to
their common values (used by the AIP Registry when several completed
subexpressions constrain the same attribute).

Storage layout
--------------

:class:`BloomFilter` keeps its bits in a flat ``array('Q')`` of 64-bit
words — bit ``pos`` lives at ``words[pos >> 6], 1 << (pos & 63)`` — so
``add`` and ``might_contain`` touch one machine word instead of
shifting one Python big int of ``n_bits`` bits (which copies the whole
bit array per operation, making builds quadratic).  Bit *positions* are
those of the original big-int layout (``bits_as_int()`` of the word
array is that big int): ``tests/goldens/bloom.json`` pins them, and
the engine goldens pin the words of every AIP set a workload cell
builds.  Both were recorded from the word array and the big-int
implementation alike.

Batch kernels hash each *distinct* value once: ``add_many`` sets its
bits once, and ``might_contain_many`` computes one verdict and maps it
back over the batch's positions (join keys on foreign-key columns
repeat heavily).  Equal values always share bit positions, so this is
exact (:func:`_distinct`).  A published filter is :meth:`frozen
<BloomFilter.freeze>`; it never changes again, which is what lets an
injected filter remember verdicts across pages.

Filters cross process boundaries in the distributed simulation by
value: :meth:`to_payload` / :meth:`from_payload` serialize geometry
plus the little-endian word buffer.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import count
from operator import itemgetter
from typing import Hashable, Iterable, List, Optional, Set, Tuple

from repro.common.hashing import stable_key
from repro.summaries.base import Summary

#: Paper configuration: one hash function, 5% target false positives.
DEFAULT_FP_RATE = 0.05
DEFAULT_HASH_COUNT = 1

_MIN_BITS = 64


def _distinct(values: Iterable[Hashable]) -> Tuple[Set, int]:
    """The distinct values of ``values`` and how many there were.  A
    lazy iterator is counted as it streams into the set, never
    materialised as a list.

    Hashing each distinct value once is exact: values that compare
    equal set and probe the same bits.  Python gives equal numbers one
    hash (``1``, ``1.0`` and ``True``; ``-0.0`` and ``0.0``),
    ``stable_key`` maps equal strings to one CRC and tuples element by
    element, and a tuple's hash is built from its elements' hashes.  A
    NaN hashes by identity and equals no other NaN object, so a set
    keeps one member per NaN object, hashed as it would be alone."""
    if isinstance(values, list):
        return set(values), len(values)
    tally = count()
    distinct = set(map(itemgetter(0), zip(values, tally)))
    return distinct, next(tally)


def bits_for(expected_items: int, fp_rate: float, hash_count: int) -> int:
    """Bit-array size for ``expected_items`` at ``fp_rate``.

    For ``k`` hash functions the false-positive probability after
    inserting ``n`` items into ``m`` bits is ``(1 - e^(-kn/m))^k``;
    solving for ``m`` with ``k`` fixed gives the formula below.  With
    the paper's ``k = 1`` this reduces to ``m ≈ n / fp_rate``.
    """
    if expected_items <= 0:
        return _MIN_BITS
    if not 0 < fp_rate < 1:
        raise ValueError("fp_rate must be in (0, 1), got %r" % fp_rate)
    per_hash = fp_rate ** (1.0 / hash_count)
    m = -hash_count * expected_items / math.log(1.0 - per_hash)
    return max(_MIN_BITS, int(math.ceil(m)))


class BloomFilter(Summary):
    """A classic Bloom filter over hashable values.

    The bit array is a flat ``array('Q')`` word buffer; a word-wise
    AND gives linear-in-words intersection, and single-bit operations
    touch exactly one word.
    """

    __slots__ = ("n_bits", "n_hashes", "seed", "_words", "n_added", "frozen")

    def __init__(
        self,
        expected_items: int,
        fp_rate: float = DEFAULT_FP_RATE,
        n_hashes: int = DEFAULT_HASH_COUNT,
        seed: int = 0,
        n_bits: Optional[int] = None,
    ):
        """Size for ``expected_items`` at ``fp_rate``, or use an explicit
        ``n_bits`` geometry (needed when two filters built from different
        cardinalities must be merge-compatible)."""
        if n_hashes < 1:
            raise ValueError("need at least one hash function")
        self.n_bits = (
            n_bits if n_bits is not None
            else bits_for(expected_items, fp_rate, n_hashes)
        )
        if self.n_bits < 1:
            raise ValueError("n_bits must be positive")
        self.n_hashes = n_hashes
        self.seed = seed
        self._words = array("Q", bytes(8 * ((self.n_bits + 63) >> 6)))
        self.n_added = 0
        self.frozen = False

    @classmethod
    def from_values(
        cls,
        values: Iterable[Hashable],
        fp_rate: float = DEFAULT_FP_RATE,
        n_hashes: int = DEFAULT_HASH_COUNT,
        seed: int = 0,
        expected_items: Optional[int] = None,
    ) -> "BloomFilter":
        values = list(values) if expected_items is None else values
        n = expected_items if expected_items is not None else len(values)
        bloom = cls(n, fp_rate=fp_rate, n_hashes=n_hashes, seed=seed)
        bloom.add_many(values)
        return bloom

    def freeze(self) -> None:
        """Make the filter read-only: ``add``/``add_many`` raise from
        now on.  The AIP registry freezes every set it publishes, which
        is what lets an injected filter memoise its verdicts."""
        self.frozen = True

    def _check_writable(self) -> None:
        if self.frozen:
            raise ValueError("cannot add to a frozen (published) Bloom filter")

    def add(self, value: Hashable) -> None:
        self._check_writable()
        words = self._words
        n_bits = self.n_bits
        seed = self.seed
        if self.n_hashes == 1:
            pos = hash((seed, 0, stable_key(value))) % n_bits
            words[pos >> 6] |= 1 << (pos & 63)
        else:
            key = stable_key(value)
            for i in range(self.n_hashes):
                pos = hash((seed, i, key)) % n_bits
                words[pos >> 6] |= 1 << (pos & 63)
        self.n_added += 1

    def add_many(self, values: Iterable[Hashable]) -> None:
        """Set each distinct value's bits once (equal values set the
        same bits, see :func:`_distinct`); ``n_added`` still counts
        every value."""
        self._check_writable()
        words = self._words
        n_bits = self.n_bits
        seed = self.seed
        distinct, n = _distinct(values)
        # ``stable_key`` is the identity on ints, the common key type:
        # skip the call for them (identical hashes, hence words).
        if self.n_hashes == 1:
            for value in distinct:
                key = value if type(value) is int else stable_key(value)
                pos = hash((seed, 0, key)) % n_bits
                words[pos >> 6] |= 1 << (pos & 63)
        else:
            n_hashes = self.n_hashes
            for value in distinct:
                key = value if type(value) is int else stable_key(value)
                for i in range(n_hashes):
                    pos = hash((seed, i, key)) % n_bits
                    words[pos >> 6] |= 1 << (pos & 63)
        self.n_added += n

    def might_contain(self, value: Hashable) -> bool:
        words = self._words
        n_bits = self.n_bits
        seed = self.seed
        if self.n_hashes == 1:
            pos = hash((seed, 0, stable_key(value))) % n_bits
            return bool((words[pos >> 6] >> (pos & 63)) & 1)
        key = stable_key(value)
        for i in range(self.n_hashes):
            pos = hash((seed, i, key)) % n_bits
            if not (words[pos >> 6] >> (pos & 63)) & 1:
                return False
        return True

    def might_contain_many(self, values: Iterable[Hashable]) -> List[bool]:
        """One verdict per value, computed once per distinct value and
        mapped back over ``values`` (equal values share their verdict,
        see :func:`_distinct`)."""
        if not isinstance(values, list):
            values = list(values)
        if self.n_hashes == 1:
            words = self._words
            n_bits = self.n_bits
            seed = self.seed
            verdicts = {}
            # Ints skip ``stable_key`` (the identity on them), as in
            # :meth:`add_many`.
            for v in set(values):
                pos = hash((
                    seed, 0, v if type(v) is int else stable_key(v)
                )) % n_bits
                verdicts[v] = (words[pos >> 6] >> (pos & 63)) & 1 == 1
        else:
            mc = self.might_contain
            verdicts = {v: mc(v) for v in set(values)}
        return list(map(verdicts.__getitem__, values))

    def byte_size(self) -> int:
        return self.n_bits // 8 + 1

    def bits_as_int(self) -> int:
        """The bit array as one big int, bit ``pos`` at ``1 << pos`` —
        the original storage layout, for inspection and tests; never
        on the hot path."""
        words = self._words
        if sys.byteorder != "little":  # pragma: no cover - BE hosts
            words = array("Q", words)
            words.byteswap()
        return int.from_bytes(words.tobytes(), "little")

    @property
    def fill_fraction(self) -> float:
        """Fraction of bits set; the expected FP rate with one hash.

        Per-word popcount — the big-int form (``bin(bits).count("1")``)
        materialised an ``n_bits``-character string per call, and the
        service reads this for every published set.
        """
        return sum(word.bit_count() for word in self._words) / self.n_bits

    def compatible_with(self, other: "BloomFilter") -> bool:
        """True when the two filters share geometry and hash family,
        the precondition the paper states for bitwise merging."""
        return (
            self.n_bits == other.n_bits
            and self.n_hashes == other.n_hashes
            and self.seed == other.seed
        )

    def intersect(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise intersection: superset of the true value intersection.
        The AND runs over both word buffers at once, as two big ints:
        one C-level pass instead of a Python loop over words (the byte
        order only has to round-trip, so native order serves)."""
        if not self.compatible_with(other):
            raise ValueError("cannot intersect incompatible Bloom filters")
        merged = type(self).__new__(type(self))
        merged.n_bits = self.n_bits
        merged.n_hashes = self.n_hashes
        merged.seed = self.seed
        merged.frozen = False
        nbytes = 8 * len(self._words)
        bits = int.from_bytes(self._words.tobytes(), sys.byteorder) \
            & int.from_bytes(other._words.tobytes(), sys.byteorder)
        merged._words = array("Q", bits.to_bytes(nbytes, sys.byteorder))
        merged.n_added = min(self.n_added, other.n_added)
        return merged

    # -- wire format (distributed shipping) -----------------------------

    def to_payload(self) -> dict:
        """Geometry plus the little-endian word buffer (what
        :meth:`from_payload` accepts)."""
        words = self._words
        if sys.byteorder != "little":  # pragma: no cover - BE hosts
            words = array("Q", words)
            words.byteswap()
        return {
            "kind": "bloom",
            "n_bits": self.n_bits,
            "n_hashes": self.n_hashes,
            "seed": self.seed,
            "n_added": self.n_added,
            "words": words.tobytes(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BloomFilter":
        if payload.get("kind") != "bloom":
            raise ValueError("not a Bloom filter payload")
        if payload["n_bits"] < 1 or payload["n_hashes"] < 1:
            raise ValueError("invalid Bloom filter geometry")
        # Bypass __init__: it would zero-fill a word buffer only for
        # the payload's words to replace it — dead work at paper-scale
        # sizes.
        bloom = cls.__new__(cls)
        bloom.n_bits = payload["n_bits"]
        bloom.n_hashes = payload["n_hashes"]
        bloom.seed = payload["seed"]
        words = array("Q", payload["words"])
        if sys.byteorder != "little":  # pragma: no cover - BE hosts
            words.byteswap()
        if len(words) != (bloom.n_bits + 63) >> 6:
            raise ValueError("payload does not match filter geometry")
        bloom._words = words
        bloom.n_added = payload["n_added"]
        bloom.frozen = False
        return bloom

    def __repr__(self) -> str:
        return "%s(bits=%d, hashes=%d, added=%d)" % (
            type(self).__name__, self.n_bits, self.n_hashes, self.n_added,
        )
