"""End-to-end AIP strategy tests: correctness and effectiveness.

The overriding invariant (paper Section V): AIP is a *performance*
optimisation — every strategy must return exactly the same result set
as the baseline.
"""

import pytest

from repro.aip.feedforward import FeedForwardStrategy
from repro.aip.manager import CostBasedStrategy
from repro.exec.arrival import ArrivalModel
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan

from tests.aip.conftest import join_only_plan, min_cost_plan, subquery_plan
from tests.helpers import rows_equal


def run(plan, catalog, strategy=None, resolver=None):
    ctx = ExecutionContext(catalog, strategy=strategy)
    return execute_plan(plan, ctx, arrival_resolver=resolver)


PLAN_BUILDERS = [subquery_plan, min_cost_plan, join_only_plan]


class TestCorrectness:
    @pytest.mark.parametrize("builder", PLAN_BUILDERS)
    def test_feedforward_preserves_results(self, catalog, builder):
        baseline = run(builder(catalog), catalog)
        ff = run(builder(catalog), catalog, FeedForwardStrategy())
        assert rows_equal(baseline.rows, ff.rows)
        assert len(baseline) > 0

    @pytest.mark.parametrize("builder", PLAN_BUILDERS)
    def test_costbased_preserves_results(self, catalog, builder):
        baseline = run(builder(catalog), catalog)
        cb = run(builder(catalog), catalog, CostBasedStrategy())
        assert rows_equal(baseline.rows, cb.rows)

    @pytest.mark.parametrize("builder", PLAN_BUILDERS)
    def test_feedforward_with_delays_preserves_results(self, catalog, builder):
        def resolver(node):
            if node.table_name == "partsupp":
                return ArrivalModel.delayed(initial_delay=0.01)
            return None

        baseline = run(builder(catalog), catalog, resolver=resolver)
        ff = run(builder(catalog), catalog, FeedForwardStrategy(), resolver)
        assert rows_equal(baseline.rows, ff.rows)

    @pytest.mark.parametrize("builder", PLAN_BUILDERS)
    def test_costbased_with_delays_preserves_results(self, catalog, builder):
        def resolver(node):
            if node.table_name == "lineitem":
                return ArrivalModel.delayed(initial_delay=0.01)
            return None

        baseline = run(builder(catalog), catalog, resolver=resolver)
        cb = run(builder(catalog), catalog, CostBasedStrategy(), resolver)
        assert rows_equal(baseline.rows, cb.rows)

    def test_hashset_kind_preserves_results(self, catalog):
        from repro.aip.sets import HASHSET
        baseline = run(subquery_plan(catalog), catalog)
        ff = run(
            subquery_plan(catalog), catalog,
            FeedForwardStrategy(summary_kind=HASHSET),
        )
        assert rows_equal(baseline.rows, ff.rows)


class TestEffectiveness:
    def test_feedforward_prunes(self, catalog):
        ff = run(subquery_plan(catalog), catalog, FeedForwardStrategy())
        assert ff.metrics.total_pruned > 0
        assert ff.metrics.aip_sets_created > 0

    def test_feedforward_reduces_state(self, catalog):
        baseline = run(subquery_plan(catalog), catalog)
        ff = run(subquery_plan(catalog), catalog, FeedForwardStrategy())
        assert ff.metrics.peak_state_bytes < baseline.metrics.peak_state_bytes

    def test_costbased_creates_or_declines(self, catalog):
        cb = run(subquery_plan(catalog), catalog, CostBasedStrategy())
        m = cb.metrics
        assert m.aip_sets_created + m.aip_sets_declined > 0

    def test_costbased_reduces_state_on_selective_query(self, catalog):
        baseline = run(min_cost_plan(catalog), catalog)
        cb = run(min_cost_plan(catalog), catalog, CostBasedStrategy())
        assert cb.metrics.peak_state_bytes <= baseline.metrics.peak_state_bytes

    def test_feedforward_min_cost_pruning(self, catalog):
        """The MIN-cost completion set must prune parent PARTSUPP rows."""
        baseline = run(min_cost_plan(catalog), catalog)
        ff = run(min_cost_plan(catalog), catalog, FeedForwardStrategy())
        assert rows_equal(baseline.rows, ff.rows)
        assert ff.metrics.total_pruned > 0

    def test_costbased_declines_when_no_opportunity(self, catalog):
        """On a plan with a single join and no selective predicates the
        manager should mostly decline (safety: low overhead)."""
        from repro.plan.builder import scan
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        baseline = run(plan, catalog)
        plan2 = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        cb = run(plan2, catalog, CostBasedStrategy())
        assert rows_equal(baseline.rows, cb.rows)
        # Overhead within a few percent of baseline (paper: ~4% worst).
        assert cb.metrics.clock < baseline.metrics.clock * 1.15


class TestStrategyInternals:
    def test_ff_interest_drop_discards_working_sets(self, catalog):
        strategy = FeedForwardStrategy()
        run(subquery_plan(catalog), catalog, strategy)
        # After the query every working set has been published or dropped.
        assert not strategy._working

    def test_ff_ablation_knobs(self, catalog):
        baseline = run(subquery_plan(catalog), catalog)
        no_scan = run(
            subquery_plan(catalog), catalog,
            FeedForwardStrategy(inject_at_scans=False),
        )
        no_prune = run(
            subquery_plan(catalog), catalog,
            FeedForwardStrategy(prune_uninterested=False),
        )
        assert rows_equal(baseline.rows, no_scan.rows)
        assert rows_equal(baseline.rows, no_prune.rows)

    def test_cb_benefit_margin(self, catalog, monkeypatch):
        """A prohibitive margin should turn cost-based AIP into baseline."""
        monkeypatch.setattr(CostBasedStrategy, "BENEFIT_MARGIN", 1e9)
        strict = run(min_cost_plan(catalog), catalog, CostBasedStrategy())
        assert strict.metrics.aip_sets_created == 0

    def test_cb_state_complete_guard(self, catalog):
        """Cost-based AIP must not summarise short-circuited state; with
        the guard active, results stay correct under aggressive timing."""
        def resolver(node):
            if node.table_name == "part":
                return ArrivalModel.streaming(per_tuple=1e-7)
            return None

        baseline = run(min_cost_plan(catalog), catalog, resolver=resolver)
        cb = run(min_cost_plan(catalog), catalog, CostBasedStrategy(), resolver)
        assert rows_equal(baseline.rows, cb.rows)
