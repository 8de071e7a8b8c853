"""Plan cost estimation.

Uses the *same* per-event constants as the executing engine
(:class:`repro.exec.costs.CostModel`), so a cost prediction for a
subtree is directly comparable to virtual seconds the engine would
spend on it.  This mirrors Tukwila, where "the optimizer and its
subcomponents can be invoked at any time during execution" — the
cost-based AIP manager calls into this module from inside a running
query (``ESTIMATEBENEFIT``, Figure 4 of the paper).
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import OptimizerError
from repro.data.catalog import Catalog
from repro.exec.costs import CostModel
from repro.optimizer.estimator import CardinalityEstimator
from repro.plan.logical import (
    Distinct, Filter, GroupBy, Join, LogicalNode, Project, Scan, SemiJoin,
)


class PlanCoster:
    """Estimates the engine cost (virtual seconds) of plan subtrees."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        estimator: Optional[CardinalityEstimator] = None,
    ):
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.estimator = estimator or CardinalityEstimator(catalog)

    # -- totals -----------------------------------------------------------

    def total_cost(self, node: LogicalNode) -> float:
        """Full cost of computing ``node``, including its inputs.
        Shared subexpressions (DAG plans) are counted once — the push
        engine executes them once."""
        return sum(self.local_cost(n) for n in node.walk())

    def local_cost(self, node: LogicalNode) -> float:
        """Cost of the node itself, given estimated input cardinalities."""
        cm = self.cost_model
        est = self.estimator.estimate(node)

        if isinstance(node, Scan):
            return est.rows * cm.scan_read

        if isinstance(node, Filter):
            in_rows = self.estimator.estimate(node.child).rows
            return in_rows * (cm.tuple_base + cm.predicate_eval)

        if isinstance(node, Project):
            in_rows = self.estimator.estimate(node.child).rows
            return in_rows * (cm.tuple_base + cm.output_build)

        if isinstance(node, Join):
            left = self.estimator.estimate(node.left).rows
            right = self.estimator.estimate(node.right).rows
            return self.join_local_cost(left, right, est.rows)

        if isinstance(node, SemiJoin):
            probe = self.estimator.estimate(node.probe).rows
            source = self.estimator.estimate(node.source).rows
            per_probe = cm.tuple_base + cm.hash_probe
            per_source = cm.tuple_base + cm.hash_insert
            return probe * per_probe + source * per_source + est.rows * cm.output_build

        if isinstance(node, GroupBy):
            in_rows = self.estimator.estimate(node.child).rows
            n_aggs = max(len(node.aggregates), 1)
            per_row = cm.tuple_base + cm.hash_probe + n_aggs * cm.agg_update
            return in_rows * per_row + est.rows * (cm.hash_insert + cm.output_build)

        if isinstance(node, Distinct):
            in_rows = self.estimator.estimate(node.child).rows
            return (
                in_rows * (cm.tuple_base + cm.hash_probe)
                + est.rows * cm.hash_insert
            )

        raise OptimizerError("cannot cost node %r" % node)

    # -- pieces used by the AIP manager ------------------------------------

    def join_local_cost(self, left_rows: float, right_rows: float,
                        out_rows: float) -> float:
        """Cost of a pipelined hash join given its input/output sizes."""
        cm = self.cost_model
        per_input = cm.tuple_base + cm.hash_probe + cm.hash_insert
        return (left_rows + right_rows) * per_input + out_rows * cm.output_build

    def aip_build_cost(self, state_rows: float) -> float:
        """Cost of scanning operator state to build an AIP set."""
        return state_rows * self.cost_model.aip_build_per_row

    def state_bytes(self, node: LogicalNode) -> float:
        """Estimated bytes to buffer ``node``'s full output."""
        from repro.common.sizing import rows_nbytes
        est = self.estimator.estimate(node)
        return rows_nbytes(node.schema, est.rows)
