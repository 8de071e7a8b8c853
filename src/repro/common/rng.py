"""Deterministic random number generation for data synthesis.

The TPC-H generator must produce identical tables for identical
``(scale_factor, skew, seed)`` triples so that experiments are
reproducible run-to-run.  We wrap :class:`random.Random` with a
convenience layer and add a Zipfian sampler used to reproduce the
paper's skewed TPC-D data set (Zipf factor z = 0.5).
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with helpers used by the data generator.

    Separate logical *streams* can be derived with :meth:`fork` so that,
    for instance, changing how many parts are generated does not perturb
    the supplier table.
    """

    def __init__(self, seed: int = 0x5EED):
        self._seed = seed
        self._random = random.Random(seed)
        self._fork_counter = itertools.count(1)

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent stream identified by ``label``.

        The derived seed depends only on the parent seed and the label,
        not on how much randomness has already been consumed, and is
        stable across processes (no randomised string hashing).
        """
        from repro.common.hashing import stable_label_seed

        return DeterministicRng(stable_label_seed(self._seed, label))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        return self._random.randint(lo, hi)

    def uniform(self, lo: float, hi: float) -> float:
        return self._random.uniform(lo, hi)

    def choice(self, items: Sequence[T]) -> T:
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        return self._random.sample(items, k)

    def random(self) -> float:
        return self._random.random()


class ZipfSampler:
    """Draw integers in ``[1, n]`` following a Zipfian distribution.

    ``P(k) ~ 1 / k**z``.  ``z = 0`` degenerates to uniform; the paper's
    skewed data set uses ``z = 0.5``.  Sampling is done by inverse CDF
    over a precomputed cumulative table, which is exact and fast enough
    for the table sizes we generate.
    """

    def __init__(self, n: int, z: float, rng: DeterministicRng):
        if n < 1:
            raise ValueError("ZipfSampler requires n >= 1, got %d" % n)
        if z < 0:
            raise ValueError("Zipf exponent must be non-negative, got %r" % z)
        self.n = n
        self.z = z
        self._rng = rng
        weights = [1.0 / (k ** z) for k in range(1, n + 1)]
        total = sum(weights)
        acc = 0.0
        cdf = []
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0  # guard against floating point shortfall
        self._cdf = cdf

    def sample(self) -> int:
        """Return a value in ``[1, n]``; rank 1 is the most frequent."""
        u = self._rng.random()
        return bisect.bisect_left(self._cdf, u) + 1
