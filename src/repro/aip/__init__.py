"""Adaptive Information Passing (the paper's core contribution).

Two strategies plug into the push engine's hook interface, both built
on :class:`~repro.aip.candidates.AIPStrategy`: one AIPCANDIDATES
(Figure 3) per plan, one walk over a set's live targets and one step
that installs a filter or intersects it into the one already there.

* :class:`~repro.aip.feedforward.FeedForwardStrategy` — Section IV-A's
  greedy algorithm: every stateful operator optimistically maintains
  working AIP sets and publishes them through a central
  :class:`~repro.aip.registry.AIPRegistry` when its input completes.
* :class:`~repro.aip.manager.CostBasedStrategy` — Section IV-B's
  algorithm: an AIP Manager triggered on subexpression completion runs
  ``ESTIMATEBENEFIT`` against the optimizer's cost model and only
  builds/injects filters predicted to pay for themselves; optionally
  ships filters to remote sites (Section V-B).
"""

from repro.aip.sets import AIPSet, AIPSetSpec
from repro.aip.registry import AIPRegistry
from repro.aip.feedforward import FeedForwardStrategy
from repro.aip.candidates import AIPStrategy, aip_candidates, CandidateIndex
from repro.aip.manager import CostBasedStrategy

__all__ = [
    "AIPSet",
    "AIPSetSpec",
    "AIPRegistry",
    "AIPStrategy",
    "FeedForwardStrategy",
    "aip_candidates",
    "CandidateIndex",
    "CostBasedStrategy",
]
