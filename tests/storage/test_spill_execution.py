"""End-to-end spilling: governed runs must reproduce un-governed rows.

The memory governor may reorder *when* results surface (deferred
partitions emit at completion), but never *what* surfaces — and the
state exposed to the AIP layer must stay complete across spills, or
injected filters would prune rows that still have matches on disk.
"""

import os

import pytest

from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.expr.expressions import col
from repro.harness.concurrent import run_concurrent
from repro.harness.runner import run_workload_query
from repro.plan.builder import scan
from repro.storage.governor import MemoryGovernor

from tests.helpers import rows_equal

SCALE = 0.002


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=SCALE)


def _governed_plan_rows(catalog, plan, budget, batch_execution=True):
    governor = MemoryGovernor(budget)
    ctx = ExecutionContext(
        catalog, governor=governor, batch_execution=batch_execution,
    )
    try:
        result = execute_plan(plan, ctx)
        return result.rows, governor
    finally:
        governor.close()


class TestOperatorSpills:
    """Each stateful operator forced through its spill path."""

    def _plan_join(self, catalog):
        return (
            scan(catalog, "partsupp")
            .join(scan(catalog, "supplier"), on=[("ps_suppkey", "s_suppkey")])
            .build()
        )

    def _plan_distinct(self, catalog):
        return (
            scan(catalog, "partsupp")
            .project(["ps_suppkey", "ps_availqty"])
            .distinct()
            .build()
        )

    def _plan_semijoin(self, catalog):
        return (
            scan(catalog, "partsupp")
            .semijoin(
                scan(catalog, "part").filter(col("p_size").le(20)),
                on=[("ps_partkey", "p_partkey")],
            )
            .build()
        )

    def _plan_groupby(self, catalog):
        from repro.expr.aggregates import AggregateSpec
        return (
            scan(catalog, "partsupp")
            .group_by(
                ["ps_partkey"],
                [AggregateSpec("min", col("ps_supplycost"), "min_cost")],
            )
            .build()
        )

    @pytest.mark.parametrize(
        "builder", ["_plan_join", "_plan_distinct", "_plan_semijoin",
                    "_plan_groupby"],
    )
    def test_spilled_rows_match_unbounded(self, catalog, builder):
        plan = getattr(self, builder)(catalog)
        baseline = execute_plan(plan, ExecutionContext(catalog)).rows
        # A budget far below the operator state forces real spills.
        rows, governor = _governed_plan_rows(catalog, plan, budget=60_000)
        assert governor.backend.pages_written > 0, "no spill was forced"
        assert governor.peak_resident_bytes <= 60_000
        assert rows_equal(rows, baseline)

    @pytest.mark.parametrize(
        "builder", ["_plan_join", "_plan_distinct", "_plan_semijoin",
                    "_plan_groupby"],
    )
    def test_batch_and_tuple_paths_agree_under_spill(self, catalog, builder):
        plan = getattr(self, builder)(catalog)
        batch_rows, _ = _governed_plan_rows(
            catalog, plan, budget=60_000, batch_execution=True,
        )
        tuple_rows, _ = _governed_plan_rows(
            catalog, plan, budget=60_000, batch_execution=False,
        )
        assert rows_equal(batch_rows, tuple_rows)
        assert len(batch_rows) == len(tuple_rows)

    def test_short_circuit_with_spill(self, catalog):
        """Short-circuiting releases one side mid-stream; the spilled
        runs must still produce the full join."""
        plan = self._plan_join(catalog)
        baseline = execute_plan(
            plan, ExecutionContext(catalog, short_circuit=True)
        ).rows
        governor = MemoryGovernor(60_000)
        ctx = ExecutionContext(catalog, governor=governor, short_circuit=True)
        try:
            rows = execute_plan(plan, ctx).rows
        finally:
            governor.close()
        assert rows_equal(rows, baseline)


class TestAIPStateStreaming:
    def test_state_values_stream_spilled_partitions(self, catalog):
        """Summaries built from spilled state must cover every stored
        row — a partial summary would prune rows with real matches."""
        from repro.exec.translate import translate

        governor = MemoryGovernor(60_000)
        ctx = ExecutionContext(catalog, governor=governor)
        try:
            plan = (
                scan(catalog, "partsupp")
                .join(scan(catalog, "supplier"),
                      on=[("ps_suppkey", "s_suppkey")])
                .build()
            )
            physical = translate(plan, ctx)
            join = physical.by_node_id[plan.node_id]
            # Drive the big side directly: ~100 KB of inserts against a
            # 60 KB budget must spill partitions.
            partsupp = list(catalog.table("partsupp").rows)
            key_idx = catalog.table("partsupp").schema.index_of("ps_partkey")
            for row in partsupp:
                join.push(row, 0)
            assert join._spilled, "budget did not force a join spill"
            got = sorted(join.state_values(0, "ps_partkey"))
            expected = sorted(row[key_idx] for row in partsupp)
            assert got == expected
            assert join.stored_count(0) == len(partsupp)
        finally:
            governor.close()

    def test_costbased_with_budget_matches_unbounded(self):
        record = run_workload_query(
            "Q2A", "costbased", scale_factor=SCALE,
        )
        governed = run_workload_query(
            "Q2A", "costbased", scale_factor=SCALE,
            memory_budget=record.result.metrics.peak_state_bytes // 4,
        )
        assert rows_equal(governed.result.rows, record.result.rows)
        assert governed.storage["spilled_bytes"] > 0

    @pytest.mark.parametrize("strategy", ("baseline", "costbased"))
    @pytest.mark.parametrize("qid", ("Q2A", "Q4A", "Q5A"))
    def test_tenth_of_peak_budget_completes_with_identical_rows(
        self, qid, strategy
    ):
        """The state-heavy join workloads at 10% of the resident peak
        a calibration run observes: the governor keeps its promise by
        spilling, and the rows are the un-governed run's."""
        record = run_workload_query(qid, strategy, scale_factor=SCALE)
        peak = run_workload_query(
            qid, strategy, scale_factor=SCALE, memory_budget=1 << 40,
        ).storage["peak_resident_bytes"]
        budget = max(peak // 10, 4096)
        governed = run_workload_query(
            qid, strategy, scale_factor=SCALE, memory_budget=budget,
        )
        assert rows_equal(governed.result.rows, record.result.rows)
        assert governed.storage["peak_resident_bytes"] <= budget
        assert governed.storage["spilled_bytes"] > 0


class TestConcurrentGovernor:
    def test_queries_race_for_the_last_lease(self, catalog):
        """Two concurrent plans share one tight governor: reclaim must
        interleave across both queries' operators without corrupting
        either result."""
        plans = [
            scan(catalog, "partsupp")
            .join(scan(catalog, "supplier"), on=[("ps_suppkey", "s_suppkey")])
            .build(),
            scan(catalog, "partsupp")
            .project(["ps_suppkey", "ps_availqty"])
            .distinct()
            .build(),
        ]
        solo = [
            execute_plan(p, ExecutionContext(catalog)).rows for p in plans
        ]
        governor = MemoryGovernor(80_000)
        ctx = ExecutionContext(catalog, governor=governor)
        try:
            results = run_concurrent(plans, ctx)
            assert governor.backend.pages_written > 0
            assert governor.peak_resident_bytes <= 80_000
            for result, expected in zip(results, solo):
                assert rows_equal(result.rows, expected)
        finally:
            governor.close()


class TestErrorCleanup:
    def test_spill_dir_removed_on_engine_error(self, monkeypatch):
        """An engine error mid-run must not strand the spill
        directory."""
        import repro.storage.governor as governor_module

        created = []
        real_governor = governor_module.MemoryGovernor

        class Tracking(real_governor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(governor_module, "MemoryGovernor", Tracking)

        from repro.exec import engine as engine_module

        dirs = []

        def explode(self, plan):
            # Touch the spill path first so there is a directory to
            # leak, then die the way a buggy operator would.
            created[0].buffer.add("page", 10)
            created[0].buffer.evict_until(10)
            dirs.append(created[0].backend.path)
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(engine_module.Engine, "run", explode)
        with pytest.raises(RuntimeError, match="engine exploded"):
            run_workload_query(
                "Q1A", "baseline", scale_factor=SCALE, memory_budget=10_000,
            )
        assert created, "governor was never constructed"
        assert dirs and dirs[0] is not None
        assert not os.path.exists(dirs[0])
        assert created[0].backend.path is None  # close() ran

    def test_service_close_removes_spill_dir(self):
        from repro.service.service import QueryService

        catalog = cached_tpch(scale_factor=SCALE)
        with QueryService(
            catalog, strategy="baseline", aip_cache=False,
            result_cache=False, memory_budget=100_000,
        ) as service:
            service.submit("Q2A")
            service.run()
            path = service.governor.backend.path
            assert path is not None and os.path.isdir(path)
        assert not os.path.exists(path)
