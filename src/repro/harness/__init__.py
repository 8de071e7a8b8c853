"""Run Table I queries under the four strategies the paper compares;
``tests/harness/test_paper_shapes.py`` asserts the figures over these
runs and ``repro run QID --strategy all`` prints one figure row."""

from repro.harness.strategies import STRATEGIES, make_strategy
from repro.harness.runner import RunRecord, run_workload_query

__all__ = [
    "STRATEGIES",
    "make_strategy",
    "RunRecord",
    "run_workload_query",
]
