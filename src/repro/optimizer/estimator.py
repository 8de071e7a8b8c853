"""Cardinality estimation.

The paper's Tukwila cost modeler (Section V-A) "does not require
histograms: instead, it relies on cardinality estimates and information
about keys and foreign keys when estimating the selectivity of join
conditions ... assuming uniform distribution and uncorrelated
attributes."  This estimator keeps the uniformity and independence
assumptions but reads no keys: a join's selectivity is one over the
larger distinct count of its key pair, and range predicates scale by
the column's min/max (DESIGN.md section 14).

The estimator additionally accepts runtime *observations* — actual
operator output counts and completion flags — which is how the
cost-based AIP manager's ``UPDATEESTIMATES`` step (Figure 4, line 1)
re-grounds estimates mid-execution.
"""

from __future__ import annotations

import datetime
from typing import Dict, Optional

from repro.common.errors import OptimizerError
from repro.data.catalog import Catalog
from repro.expr.expressions import (
    And, Cmp, Col, Expr, Like, Lit, Not, Or,
)
from repro.plan.logical import (
    Distinct, Filter, GroupBy, Join, LogicalNode, Project, Scan, SemiJoin,
)

#: Fallbacks when nothing better is known (classic System R constants).
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.2
MIN_ROWS = 1.0


class Estimate:
    """Estimated output of one plan node."""

    __slots__ = ("rows", "distinct")

    def __init__(self, rows: float, distinct: Dict[str, float]):
        self.rows = max(rows, 0.0)
        self.distinct = distinct

    def distinct_of(self, attr: str) -> float:
        d = self.distinct.get(attr)
        if d is None or d <= 0:
            return max(self.rows, MIN_ROWS)
        return d

    def __repr__(self) -> str:
        return "Estimate(rows=%.1f)" % self.rows


class Observation:
    """Runtime feedback about one operator's output."""

    __slots__ = ("rows_out", "complete")

    def __init__(self, rows_out: int, complete: bool):
        self.rows_out = rows_out
        self.complete = complete


class CardinalityEstimator:
    """Estimates node output cardinalities and per-attribute distincts."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._observations: Dict[int, Observation] = {}
        self._cache: Dict[int, Estimate] = {}

    # -- runtime feedback -------------------------------------------------

    def observe(self, node_id: int, rows_out: int, complete: bool) -> None:
        """Record actual output progress for a node (UPDATEESTIMATES)."""
        self._observations[node_id] = Observation(rows_out, complete)
        self._cache.clear()

    # -- entry point --------------------------------------------------------

    def estimate(self, node: LogicalNode) -> Estimate:
        cached = self._cache.get(node.node_id)
        if cached is not None:
            return cached
        est = self._estimate_fresh(node)
        obs = self._observations.get(node.node_id)
        if obs is not None:
            if obs.complete:
                rows = float(obs.rows_out)
            else:
                # Still running: the true output is at least what we saw.
                rows = max(est.rows, float(obs.rows_out))
            est = Estimate(
                rows,
                {a: min(d, max(rows, MIN_ROWS)) for a, d in est.distinct.items()},
            )
        self._cache[node.node_id] = est
        return est

    # -- per-node rules ------------------------------------------------------

    def _estimate_fresh(self, node: LogicalNode) -> Estimate:
        if isinstance(node, Scan):
            return self._scan(node)
        if isinstance(node, Filter):
            child = self.estimate(node.child)
            sel = self.selectivity(node.predicate, node.child, child)
            return self._scaled(child, child.rows * sel, node.schema.names)
        if isinstance(node, Project):
            child = self.estimate(node.child)
            distinct = {}
            for name, expr in node.outputs:
                if isinstance(expr, Col):
                    distinct[name] = child.distinct_of(expr.name)
                else:
                    distinct[name] = max(child.rows, MIN_ROWS)
            return Estimate(child.rows, distinct)
        if isinstance(node, Join):
            return self._join(node)
        if isinstance(node, SemiJoin):
            return self._semijoin(node)
        if isinstance(node, GroupBy):
            return self._group_by(node)
        if isinstance(node, Distinct):
            child = self.estimate(node.child)
            bound = 1.0
            for attr in node.schema.names:
                bound *= child.distinct_of(attr)
                if bound >= child.rows:
                    break
            rows = min(child.rows, bound)
            return self._scaled(child, rows, node.schema.names)
        raise OptimizerError("cannot estimate node %r" % node)

    def _scan(self, node: Scan) -> Estimate:
        stats = self.catalog.stats(node.table_name)
        distinct = {}
        for out_name, (_, base_col) in node.column_origins.items():
            distinct[out_name] = float(stats.distinct.get(base_col, stats.row_count))
        return Estimate(float(stats.row_count), distinct)

    def _join(self, node: Join) -> Estimate:
        left = self.estimate(node.left)
        right = self.estimate(node.right)
        rows = left.rows * right.rows
        for lk, rk in node.key_pairs():
            denom = max(left.distinct_of(lk), right.distinct_of(rk), 1.0)
            rows /= denom
        if node.residual is not None:
            combined = dict(left.distinct)
            combined.update(right.distinct)
            pseudo = Estimate(rows, combined)
            rows *= self.selectivity(node.residual, node, pseudo)
        distinct = {}
        for attr, d in left.distinct.items():
            distinct[attr] = min(d, max(rows, MIN_ROWS))
        for attr, d in right.distinct.items():
            distinct[attr] = min(d, max(rows, MIN_ROWS))
        return Estimate(rows, distinct)

    def _semijoin(self, node: SemiJoin) -> Estimate:
        probe = self.estimate(node.probe)
        source = self.estimate(node.source)
        rows = probe.rows
        for pk, sk in zip(node.probe_keys, node.source_keys):
            d_probe = probe.distinct_of(pk)
            d_source = source.distinct_of(sk)
            rows *= min(1.0, d_source / max(d_probe, 1.0))
        return self._scaled(probe, rows, node.schema.names)

    def _group_by(self, node: GroupBy) -> Estimate:
        child = self.estimate(node.child)
        groups = 1.0
        for key in node.keys:
            groups *= child.distinct_of(key)
            if groups >= child.rows:
                break
        rows = max(min(child.rows, groups), MIN_ROWS if child.rows else 0.0)
        distinct = {}
        for key in node.keys:
            distinct[key] = min(child.distinct_of(key), max(rows, MIN_ROWS))
        for spec in node.aggregates:
            distinct[spec.output_name] = max(rows, MIN_ROWS)
        return Estimate(rows, distinct)

    def _scaled(self, child: Estimate, rows: float, names) -> Estimate:
        rows = max(rows, 0.0)
        return Estimate(
            rows,
            {a: min(child.distinct_of(a), max(rows, MIN_ROWS)) for a in names},
        )

    # -- predicate selectivity -------------------------------------------

    def selectivity(
        self, predicate: Expr, node: LogicalNode, est: Estimate
    ) -> float:
        """Estimated fraction of rows satisfying ``predicate``."""
        if isinstance(predicate, And):
            out = 1.0
            for term in predicate.terms:
                out *= self.selectivity(term, node, est)
            return out
        if isinstance(predicate, Or):
            out = 1.0
            for term in predicate.terms:
                out *= 1.0 - self.selectivity(term, node, est)
            return 1.0 - out
        if isinstance(predicate, Not):
            return 1.0 - self.selectivity(predicate.term, node, est)
        if isinstance(predicate, Like):
            return DEFAULT_LIKE_SELECTIVITY
        if isinstance(predicate, Cmp):
            return self._cmp_selectivity(predicate, node, est)
        return 0.5

    def _cmp_selectivity(self, cmp: Cmp, node: LogicalNode, est: Estimate) -> float:
        pair = cmp.is_column_equality()
        if pair is not None:
            d = max(est.distinct_of(pair[0]), est.distinct_of(pair[1]), 1.0)
            return 1.0 / d

        col, lit_value, op = self._column_vs_literal(cmp)
        if col is None:
            return (
                DEFAULT_EQ_SELECTIVITY if cmp.op in ("=", "!=")
                else DEFAULT_RANGE_SELECTIVITY
            )
        if op == "=":
            return 1.0 / max(est.distinct_of(col), 1.0)
        if op == "!=":
            return 1.0 - 1.0 / max(est.distinct_of(col), 1.0)
        return self._range_selectivity(col, lit_value, op, node)

    @staticmethod
    def _column_vs_literal(cmp: Cmp):
        """Normalise to (column, literal, operator-with-column-on-left)."""
        flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
        if isinstance(cmp.left, Col) and isinstance(cmp.right, Lit):
            return cmp.left.name, cmp.right.value, cmp.op
        if isinstance(cmp.right, Col) and isinstance(cmp.left, Lit):
            return cmp.right.name, cmp.left.value, flip[cmp.op]
        return None, None, None

    def _range_selectivity(self, attr: str, value, op: str, node: LogicalNode) -> float:
        bounds = self._bounds_of(attr, node)
        if bounds is None:
            return DEFAULT_RANGE_SELECTIVITY
        lo, hi = bounds
        frac = _fraction_below(value, lo, hi)
        if frac is None:
            return DEFAULT_RANGE_SELECTIVITY
        if op in ("<", "<="):
            sel = frac
        else:
            sel = 1.0 - frac
        return min(max(sel, 0.0), 1.0)

    def _bounds_of(self, attr: str, node: LogicalNode):
        origin = node.column_origins.get(attr)
        if origin is None:
            return None
        table, column = origin
        stats = self.catalog.stats(table)
        lo = stats.minima.get(column)
        hi = stats.maxima.get(column)
        if lo is None or hi is None or lo == hi:
            return None
        return lo, hi


def _fraction_below(value, lo, hi) -> Optional[float]:
    """Uniform-interpolation fraction of the domain below ``value``."""
    try:
        if isinstance(value, str):
            v = _date_ordinal(value)
            low = _date_ordinal(lo)
            high = _date_ordinal(hi)
            if v is None or low is None or high is None:
                return None
            return (v - low) / (high - low) if high != low else None
        return (float(value) - float(lo)) / (float(hi) - float(lo))
    except (TypeError, ValueError):
        return None


def _date_ordinal(value) -> Optional[int]:
    if not isinstance(value, str):
        return None
    try:
        return datetime.date.fromisoformat(value).toordinal()
    except ValueError:
        return None
