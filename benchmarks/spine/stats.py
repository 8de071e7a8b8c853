"""Sample statistics the spine reports: exact percentiles and the
tail-percentile picker.

A timing is reported as a median plus the *highest* percentile that
still has at least ten samples beyond it, so the tail is an observed
quantity rather than the maximum in disguise.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Candidate tail percentiles, lowest first.
TAIL_CANDIDATES = (75, 90, 99)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Exact linear-interpolated percentile (``q`` in 0..100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def pick_tail(count: int) -> Optional[int]:
    """The highest candidate percentile with at least
    :data:`MIN_BEYOND` of ``count`` samples beyond it, or None when the
    sample is too small to support any.

    Each workload's tail percentile is *fixed* (a metric must mean the
    same thing on every run); it was chosen with this function from the
    sample count of a full-length window, and every run re-checks that
    its own sample still supports it.
    """
    chosen = None
    for candidate in TAIL_CANDIDATES:
        if count * (100.0 - candidate) / 100.0 >= MIN_BEYOND:
            chosen = candidate
    return chosen
