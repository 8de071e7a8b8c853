"""AIP sets: summaries of completed (or in-progress) subexpressions.

"We term the results of a subexpression (or the summary structure of a
subexpression) an *AIP set*, since it is roughly analogous to a magic
set" (Section III-A).  An AIP set binds a summary structure to the
attribute it summarises and the equivalence class it can filter.

All AIP sets of one equivalence class share Bloom geometry (bit count,
hash function seed) so the registry can merge them by bitwise
intersection, as Section IV-A prescribes.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.summaries.base import Summary
from repro.summaries.bloom import DEFAULT_FP_RATE, BloomFilter, bits_for
from repro.summaries.hashset import HashSetSummary

BLOOM = "bloom"
HASHSET = "hashset"


class AIPSetSpec:
    """Shared geometry for all AIP sets of one equivalence class."""

    __slots__ = ("eq_root", "kind", "n_bits", "seed", "fp_rate", "n_hashes")

    def __init__(
        self,
        eq_root: str,
        expected_items: int,
        kind: str = BLOOM,
        fp_rate: float = DEFAULT_FP_RATE,
        n_hashes: int = 1,
    ):
        self.eq_root = eq_root
        self.kind = kind
        self.fp_rate = fp_rate
        self.n_hashes = n_hashes
        self.n_bits = bits_for(max(expected_items, 1), fp_rate, n_hashes)
        # A stable per-class seed keeps filters merge-compatible and
        # runs deterministic across processes.
        import zlib
        self.seed = zlib.crc32(eq_root.encode("utf-8")) & 0x7FFFFFFF

    def new_summary(self) -> Summary:
        if self.kind == HASHSET:
            return HashSetSummary()
        return BloomFilter(
            0,
            fp_rate=self.fp_rate,
            n_hashes=self.n_hashes,
            seed=self.seed,
            n_bits=self.n_bits,
        )


class AIPSet:
    """One summary plus its provenance."""

    __slots__ = ("attr", "eq_root", "summary", "source_label", "spec", "complete")

    def __init__(
        self,
        attr: str,
        spec: AIPSetSpec,
        source_label: str,
        summary: Optional[Summary] = None,
    ):
        self.attr = attr
        self.eq_root = spec.eq_root
        self.spec = spec
        self.summary = summary if summary is not None else spec.new_summary()
        self.source_label = source_label
        self.complete = False

    @classmethod
    def from_values(
        cls,
        attr: str,
        spec: AIPSetSpec,
        source_label: str,
        values: Iterable[Hashable],
    ) -> "AIPSet":
        """Build a completed set in one ``add_many`` pass.  ``values``
        may be a lazy iterator — it is consumed exactly once, and the
        element count is afterwards available as ``summary.n_added``."""
        aip_set = cls(attr, spec, source_label)
        aip_set.summary.add_many(values)
        aip_set.complete = True
        return aip_set

    def add(self, value: Hashable) -> None:
        self.summary.add(value)

    def add_many(self, values: Iterable[Hashable]) -> None:
        self.summary.add_many(values)

    def __contains__(self, value: Hashable) -> bool:
        return value in self.summary

    def byte_size(self) -> int:
        return self.summary.byte_size()

    def try_intersect(self, other: "AIPSet") -> Optional["AIPSet"]:
        """Merge with another completed set of the same class, if the
        underlying summaries are merge-compatible Bloom filters."""
        summary = intersect_frozen(self.summary, other.summary)
        if summary is None:
            return None
        merged = AIPSet(
            self.attr,
            self.spec,
            "%s∩%s" % (self.source_label, other.source_label),
            summary=summary,
        )
        merged.complete = True
        return merged

    def __repr__(self) -> str:
        return "AIPSet(%s from %s%s)" % (
            self.attr, self.source_label, "" if self.complete else " [working]",
        )


def intersect_frozen(a: Summary, b: Summary) -> Optional[BloomFilter]:
    """The bitwise intersection of two merge-compatible Bloom filters,
    frozen (filters memoise their verdicts on it); None for any other
    pair."""
    if (
        isinstance(a, BloomFilter)
        and isinstance(b, BloomFilter)
        and a.compatible_with(b)
    ):
        merged = a.intersect(b)
        merged.freeze()
        return merged
    return None
