"""Summary structures used as AIP sets (Section III-C / V of the paper)."""

from repro.summaries.base import Summary
from repro.summaries.bloom import BloomFilter
from repro.summaries.hashset import HashSetSummary

__all__ = [
    "Summary",
    "BloomFilter",
    "HashSetSummary",
]
