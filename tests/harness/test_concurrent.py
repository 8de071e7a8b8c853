"""Tests for concurrent multi-query execution."""

import pytest

from repro.aip.feedforward import FeedForwardStrategy
from repro.aip.manager import CostBasedStrategy
from repro.common.errors import ExecutionError
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext, ExecutionStrategy
from repro.exec.engine import execute_plan
from repro.harness.concurrent import run_concurrent
from repro.workloads.registry import get_query

from tests.helpers import rows_equal


class RecordingStrategy(ExecutionStrategy):
    """Records which operators each hook was invoked for."""

    def __init__(self, name):
        self.name = name
        self.own_ops = set()
        self.tuple_ops = set()
        self.finished_ops = set()
        self.started = 0
        self.ended = 0

    def attach(self, ctx, plan):
        self.own_ops = {op.op_id for op in plan.sink.walk()}

    def on_query_start(self):
        self.started += 1

    def after_tuples_page(self, op, input_idx, page):
        self.tuple_ops.add(op.op_id)

    def on_input_finished(self, op, input_idx):
        self.finished_ops.add(op.op_id)

    def on_query_end(self):
        self.ended += 1

    def describe(self):
        return self.name


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


def plans(catalog, qids):
    return [get_query(q).build_baseline(catalog) for q in qids]


class TestConcurrent:
    def test_results_match_solo_runs(self, catalog):
        qids = ["Q3A", "Q1A"]
        solo = [
            execute_plan(p, ExecutionContext(catalog))
            for p in plans(catalog, qids)
        ]
        concurrent = run_concurrent(plans(catalog, qids), ExecutionContext(catalog))
        for s, c in zip(solo, concurrent):
            assert rows_equal(s.rows, c.rows)

    def test_shared_clock_aggregates(self, catalog):
        qids = ["Q3A", "Q1A"]
        solo_cpu = sum(
            execute_plan(p, ExecutionContext(catalog)).metrics.cpu_time
            for p in plans(catalog, qids)
        )
        ctx = ExecutionContext(catalog)
        run_concurrent(plans(catalog, qids), ctx)
        assert ctx.metrics.cpu_time == pytest.approx(solo_cpu, rel=0.01)

    def test_aggregate_peak_exceeds_solo_peaks(self, catalog):
        qids = ["Q3A", "Q1A"]
        solo_peaks = [
            execute_plan(p, ExecutionContext(catalog)).metrics.peak_state_bytes
            for p in plans(catalog, qids)
        ]
        ctx = ExecutionContext(catalog)
        run_concurrent(plans(catalog, qids), ctx)
        assert ctx.metrics.peak_state_bytes >= max(solo_peaks)

    def test_per_plan_strategies(self, catalog):
        qids = ["Q3A", "Q1A"]
        ctx = ExecutionContext(catalog)
        results = run_concurrent(
            plans(catalog, qids), ctx,
            strategies=[FeedForwardStrategy(), CostBasedStrategy()],
        )
        solo = [
            execute_plan(p, ExecutionContext(catalog))
            for p in plans(catalog, qids)
        ]
        for s, c in zip(solo, results):
            assert rows_equal(s.rows, c.rows)
        assert ctx.strategy.describe().startswith("composite(")

    def test_aip_reduces_aggregate_memory(self, catalog):
        """The paper's multi-query motivation: under concurrency, AIP's
        state savings compound across queries."""
        qids = ["Q1A", "Q3A", "Q2A"]
        ctx_base = ExecutionContext(catalog)
        run_concurrent(plans(catalog, qids), ctx_base)

        ctx_aip = ExecutionContext(catalog)
        run_concurrent(
            plans(catalog, qids), ctx_aip,
            strategies=[CostBasedStrategy() for _ in qids],
        )
        assert (
            ctx_aip.metrics.peak_state_bytes
            <= ctx_base.metrics.peak_state_bytes
        )

    def test_composite_routes_hooks_to_owning_strategy(self, catalog):
        """Two plans, two strategies: per-operator hooks must reach only
        the strategy owning that operator; lifecycle hooks reach both."""
        qids = ["Q3A", "Q1A"]
        strategies = [RecordingStrategy("a"), RecordingStrategy("b")]
        run_concurrent(
            plans(catalog, qids), ExecutionContext(catalog),
            strategies=strategies,
        )
        a, b = strategies
        assert a.own_ops and b.own_ops
        assert not (a.own_ops & b.own_ops)
        for strategy, other in ((a, b), (b, a)):
            assert strategy.tuple_ops
            assert strategy.finished_ops
            assert strategy.tuple_ops <= strategy.own_ops
            assert strategy.finished_ops <= strategy.own_ops
            assert not (strategy.tuple_ops & other.own_ops)
            assert strategy.started == 1
            assert strategy.ended == 1

    def test_per_plan_finish_times(self, catalog):
        """Each plan's finish callback fires at its own clock point, no
        later than the shared end-of-batch clock."""
        qids = ["Q2A", "Q1A"]
        finishes = {}
        ctx = ExecutionContext(catalog)
        run_concurrent(
            plans(catalog, qids), ctx,
            on_plan_finished=lambda i, t: finishes.setdefault(i, t),
        )
        assert sorted(finishes) == [0, 1]
        assert all(0 < t <= ctx.metrics.clock for t in finishes.values())
        # The two queries differ in cost; they cannot tie exactly.
        assert finishes[0] != finishes[1]
        assert max(finishes.values()) == pytest.approx(ctx.metrics.clock)

    def test_strategy_count_mismatch(self, catalog):
        with pytest.raises(ExecutionError):
            run_concurrent(
                plans(catalog, ["Q3A"]),
                ExecutionContext(catalog),
                strategies=[None, None],
            )
