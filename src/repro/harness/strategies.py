"""Strategy naming shared by the harness, CLI, service and examples.

The paper's four execution strategies:

* ``baseline`` — plain push processing, no information passing;
* ``magic`` — the pipelined magic-sets rewriting (a *plan* transform,
  so it has no runtime strategy object);
* ``feedforward`` — greedy Feed-Forward AIP;
* ``costbased`` — the cost-based AIP Manager.
"""

from __future__ import annotations

from typing import Optional

from repro.aip.feedforward import FeedForwardStrategy
from repro.aip.manager import CostBasedStrategy
from repro.exec.context import ExecutionStrategy

BASELINE = "baseline"
MAGIC = "magic"
FEEDFORWARD = "feedforward"
COSTBASED = "costbased"

#: Strategy order used in every figure (mirrors the paper's legends).
STRATEGIES = (BASELINE, MAGIC, FEEDFORWARD, COSTBASED)


def make_strategy(name: str, **kwargs) -> Optional[ExecutionStrategy]:
    """Instantiate the runtime strategy for ``name`` (None = default)."""
    if name in (BASELINE, MAGIC):
        return None
    if name == FEEDFORWARD:
        return FeedForwardStrategy(**kwargs)
    if name == COSTBASED:
        return CostBasedStrategy(**kwargs)
    raise ValueError(
        "unknown strategy %r; expected one of %s" % (name, STRATEGIES)
    )


def uses_magic_plan(name: str) -> bool:
    return name == MAGIC
