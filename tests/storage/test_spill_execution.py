"""End-to-end spilling: governed runs must reproduce un-governed rows.

The memory governor may reorder *when* results surface (deferred
partitions emit at completion), but never *what* surfaces — and the
state exposed to the AIP layer must stay complete across spills, or
injected filters would prune rows that still have matches on disk.
"""

import os

import pytest

from repro.data.catalog import Catalog
from repro.data.schema import INT, STR, Schema
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.exec.operators.distinct import PDistinct
from repro.exec.operators.groupby import PGroupBy
from repro.exec.operators.hashjoin import PHashJoin
from repro.exec.operators.output import POutput
from repro.exec.pages import ColumnBatch
from repro.expr.aggregates import COUNT, MIN, AggregateSpec
from repro.expr.expressions import col
from repro.harness.concurrent import run_concurrent
from repro.harness.runner import run_workload_query
from repro.plan.builder import scan
from repro.storage.governor import MemoryGovernor
from repro.storage.spill import Spool, spill_partition

from tests.goldens import (
    ENGINE, PRESSURE_FIELDS, ROUNDED, assert_matches_golden, cell_key,
    observe_result, observed,
)
from tests.helpers import rows_equal

SCALE = 0.002


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=SCALE)


def _governed_plan_run(catalog, plan, budget):
    governor = MemoryGovernor(budget)
    ctx = ExecutionContext(catalog, governor=governor)
    try:
        return execute_plan(plan, ctx), governor
    finally:
        governor.close()


class TestOperatorSpills:
    """Each stateful operator forced through its spill path."""

    #: Scans page a table in as they read it, so only about one page
    #: per scan is resident: the join first spills below ~5 KiB, and
    #: the distinct's own floor crosses the budget below ~4.5 KiB.
    BUDGET = 4608

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

    BUILDERS = ("_plan_join", "_plan_distinct", "_plan_semijoin",
                "_plan_groupby")

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_spilled_rows_match_unbounded(self, catalog, builder):
        plan = getattr(self, builder)(catalog)
        baseline = execute_plan(plan, ExecutionContext(catalog)).rows
        result, governor = _governed_plan_run(catalog, plan, self.BUDGET)
        assert governor.backend.pages_written > 0, "no spill was forced"
        assert governor.peak_resident_bytes <= self.BUDGET
        assert rows_equal(result.rows, baseline)

    @classmethod
    def golden_key(cls, builder):
        return cell_key(
            "%s@%g" % (builder.strip("_"), SCALE), "baseline", "streamed",
            cls.BUDGET,
        )

    @classmethod
    def spilled_observation(cls, catalog, builder):
        """A pressure golden (``PRESSURE_FIELDS``): rows as a multiset
        with floats rounded as ``rows_equal`` does, since the row order
        and float sums under spill follow the run cadence."""
        plan = getattr(cls(), builder)(catalog)
        (result, _), summaries = observed(
            _governed_plan_run, catalog, plan, cls.BUDGET,
        )
        return observe_result(
            result, summaries, order=ROUNDED, fields=PRESSURE_FIELDS,
        )

    @pytest.mark.parametrize("builder", BUILDERS)
    def test_batch_and_tuple_paths_agree_under_spill(self, catalog, builder):
        assert_matches_golden(
            self.golden_key(builder),
            self.spilled_observation(catalog, builder),
        )

    def test_short_circuit_with_spill(self, catalog):
        """Short-circuiting releases one side mid-stream; the spilled
        runs must still produce the full join."""
        plan = self._plan_join(catalog)
        baseline = execute_plan(
            plan, ExecutionContext(catalog, short_circuit=True)
        ).rows
        governor = MemoryGovernor(self.BUDGET)
        ctx = ExecutionContext(catalog, governor=governor, short_circuit=True)
        try:
            rows = execute_plan(plan, ctx).rows
        finally:
            governor.close()
        assert rows_equal(rows, baseline)


def golden_cells():
    """``(suite, key, record)`` for the spilled-operator cells: the
    recorder's input (``python -m tests.goldens.record``)."""
    for builder in TestOperatorSpills.BUILDERS:
        yield ENGINE, TestOperatorSpills.golden_key(builder), (
            lambda b=builder: TestOperatorSpills.spilled_observation(
                cached_tpch(scale_factor=SCALE), b,
            )
        )


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
            join.push_page(
                ColumnBatch.from_rows(partsupp, len(join.input_schemas[0])),
                0,
            )
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

    #: Budgets that force operator state to spill yet sit above each
    #: cell's unspillable floor.  A tenth of the resident peak is no
    #: test now that scans hold one table page: Q2A's floor alone
    #: (74,880 bytes) is above a tenth of its peak (91,544).  Table
    #: pages are dropped, not written, so ``spilled_bytes`` counts
    #: operator state only: Q2A spills it below 56 KiB and Q4A
    #: costbased below 128 KiB.
    BUDGETS = {
        ("Q2A", "baseline"): 48 * 1024, ("Q2A", "costbased"): 48 * 1024,
        ("Q4A", "baseline"): 128 * 1024, ("Q4A", "costbased"): 96 * 1024,
        ("Q5A", "baseline"): 128 * 1024, ("Q5A", "costbased"): 128 * 1024,
    }

    @pytest.mark.parametrize("qid, strategy", sorted(BUDGETS))
    def test_tenth_of_peak_budget_completes_with_identical_rows(
        self, qid, strategy
    ):
        """The state-heavy join workloads under budgets that force
        spills: the governor keeps its promise by spilling, and the
        rows are the un-governed run's."""
        record = run_workload_query(qid, strategy, scale_factor=SCALE)
        budget = self.BUDGETS[qid, strategy]
        governed = run_workload_query(
            qid, strategy, scale_factor=SCALE, memory_budget=budget,
        )
        assert rows_equal(governed.result.rows, record.result.rows)
        assert governed.storage["peak_resident_bytes"] <= budget
        assert governed.storage["spilled_bytes"] > 0


class TestSpillAwareKernels:
    """The governed page kernels driven directly, with no buffer pool
    to evict: every reclaim must spill operator state, often the very
    partition a page's next rows belong to.  Whatever the timing, no
    spilled partition keeps rows in memory, the budget holds, and the
    output is the unbudgeted one."""

    BUDGET = 8192
    SCHEMA = Schema.of(("k", INT), ("name", STR))

    def _ctx(self):
        governor = MemoryGovernor(self.BUDGET)
        return governor, ExecutionContext(Catalog(), governor=governor)

    @staticmethod
    def _push_pages(op, rows, port=0, page_rows=100):
        for at in range(0, len(rows), page_rows):
            op.push_page(
                ColumnBatch.from_rows(rows[at:at + page_rows], 2), port,
            )

    @staticmethod
    def _resident_pids(keys):
        return {spill_partition(key) for key in keys}

    def test_join(self):
        governor, ctx = self._ctx()
        try:
            join = PHashJoin(
                ctx, 1, self.SCHEMA,
                Schema.of(("k2", INT), ("name2", STR)), ["k"], ["k2"],
            )
            sink = POutput(ctx, 2, join.out_schema)
            sink.connect_child(join, 0)
            left = [(i % 300, "l%d" % i) for i in range(1500)]
            right = [(i % 300, "r%d" % i) for i in range(1500)]
            for at in range(0, 1500, 100):
                self._push_pages(join, left[at:at + 100], 0)
                self._push_pages(join, right[at:at + 100], 1)
                for table in join._tables:
                    assert not self._resident_pids(table) & set(join._spilled)
            assert join._spilled
            assert any(
                runs[2 + port].n_records
                for runs in join._spilled.values() for port in (0, 1)
            )
            join.finish(0)
            join.finish(1)
            expected = [l + r for l in left for r in right if l[0] == r[0]]
            assert sorted(sink.rows) == sorted(expected)
            assert governor.peak_resident_bytes <= self.BUDGET
            assert governor.over_budget_events == 0
        finally:
            governor.close()

    def test_join_partition_larger_than_the_budget(self):
        """Every row shares one key, so one spilled partition holds the
        whole right side — several budgets' worth.  Replay loads it in
        passes that fit and probes each with the whole left side."""
        governor, ctx = self._ctx()
        try:
            join = PHashJoin(
                ctx, 1, self.SCHEMA,
                Schema.of(("k2", INT), ("name2", STR)), ["k"], ["k2"],
            )
            sink = POutput(ctx, 2, join.out_schema)
            sink.connect_child(join, 0)
            left = [(7, "l%d" % i) for i in range(120)]
            right = [(7, "r%d" % i) for i in range(480)]
            assert len(right) * join._row_bytes[1] > 2 * self.BUDGET
            for at in range(0, 120, 40):
                self._push_pages(join, left[at:at + 40], 0, page_rows=40)
                self._push_pages(
                    join, right[4 * at:4 * at + 160], 1, page_rows=40,
                )
            (runs,) = join._spilled.values()
            assert runs[2].n_records and runs[3].n_records
            join.finish(0)
            join.finish(1)
            expected = [l + r for l in left for r in right]
            assert sorted(sink.rows) == sorted(expected)
            assert governor.peak_resident_bytes <= self.BUDGET
            assert governor.over_budget_events == 0
        finally:
            governor.close()

    def test_groupby(self):
        governor, ctx = self._ctx()
        try:
            gb = PGroupBy(
                ctx, 1, self.SCHEMA,
                Schema.of(("k", INT), ("n", INT), ("first", STR)), ["k"],
                [AggregateSpec(COUNT, None, "n"),
                 AggregateSpec(MIN, col("name"), "first")],
            )
            sink = POutput(ctx, 2, gb.out_schema)
            sink.connect_child(gb, 0)
            rows = [(i % 700, "v%05d" % i) for i in range(3000)]
            for at in range(0, 3000, 300):
                self._push_pages(gb, rows[at:at + 300])
                assert not self._resident_pids(gb._groups) & set(gb._spilled)
            assert any(d.n_records for _g, d in gb._spilled.values())
            gb.finish(0)
            expected = {
                (k, sum(1 for r in rows if r[0] == k),
                 min(r[1] for r in rows if r[0] == k))
                for k in range(700)
            }
            assert sorted(sink.rows) == sorted(expected)
            assert governor.peak_resident_bytes <= self.BUDGET
            assert governor.over_budget_events == 0
        finally:
            governor.close()

    def test_distinct(self):
        governor, ctx = self._ctx()
        try:
            distinct = PDistinct(ctx, 1, self.SCHEMA)
            sink = POutput(ctx, 2, self.SCHEMA)
            sink.connect_child(distinct, 0)
            rows = [(i % 400, "d%d" % (i % 400)) for i in range(2400)]
            for at in range(0, 2400, 300):
                self._push_pages(distinct, rows[at:at + 300])
                assert not (
                    self._resident_pids(distinct._seen)
                    & set(distinct._spilled)
                )
            assert any(d.n_records for _s, d in distinct._spilled.values())
            distinct.finish(0)
            assert sorted(sink.rows) == sorted(set(rows))
            assert governor.peak_resident_bytes <= self.BUDGET
            assert governor.over_budget_events == 0
        finally:
            governor.close()


class TestExecSpillCells:
    """The spine's ``exec_spill`` cells (Q2A/Q4A/Q5A x baseline/
    feedforward at 256 KiB, scale 0.002) on the governed page path,
    plus Q2A at 64 KiB, where it still spills.

    Rows, the budget, the AIP pruning counts and the spill events are
    held exactly.  Spill counters follow the run cadence and the
    paging, so a change to either moves :attr:`SPILL_EVENTS`."""

    #: ``aip.tuples_pruned`` per cell: what the per-row governed path
    #: pruned, and what the ungoverned run prunes.
    PRUNED = {
        ("Q2A", "baseline"): 0, ("Q2A", "feedforward"): 22_983,
        ("Q4A", "baseline"): 0, ("Q4A", "feedforward"): 13_519,
        ("Q5A", "baseline"): 0, ("Q5A", "feedforward"): 11_852,
    }
    #: ``spill_events`` per (qid, strategy, budget).  At 256 KiB Q2A
    #: and Q4A feedforward fit: scans hold one table page each.  An
    #: evicted table page is dropped, not written, so its eviction is
    #: no event; its reload is one.
    SPILL_EVENTS = {
        ("Q2A", "baseline", 256 * 1024): 0,
        ("Q2A", "feedforward", 256 * 1024): 0,
        ("Q4A", "baseline", 256 * 1024): 117,
        ("Q4A", "feedforward", 256 * 1024): 0,
        ("Q5A", "baseline", 256 * 1024): 142,
        ("Q5A", "feedforward", 256 * 1024): 80,
        ("Q2A", "baseline", 64 * 1024): 10,
        ("Q2A", "feedforward", 64 * 1024): 10,
    }

    @staticmethod
    def _run(qid, strategy, budget):
        return run_workload_query(
            qid, strategy, scale_factor=SCALE, memory_budget=budget,
        )

    @staticmethod
    def _observed(record):
        metrics = record.result.metrics
        return (
            metrics.clock_ticks, metrics.peak_state_bytes,
            metrics.spill_events, metrics.spill_bytes,
            record.storage["peak_resident_bytes"],
            record.storage["evictions"], record.storage["reloads"],
        )

    @staticmethod
    def _counters(metrics):
        return [
            (c.tuples_in, c.tuples_out, c.tuples_pruned)
            for _, c in sorted(metrics.operators.items())
        ]

    @pytest.mark.parametrize("qid, strategy", sorted(PRUNED))
    def test_governed_cell(self, qid, strategy):
        free = self._check_cell(qid, strategy, 256 * 1024)

        # A governor that never reclaims is the ungoverned page path,
        # on the ungoverned run cadence.
        roomy = self._run(qid, strategy, 1 << 40)
        assert roomy.storage["spilled_bytes"] == 0
        assert roomy.result.rows == free.result.rows
        f, r = free.result.metrics, roomy.result.metrics
        assert r.pages_pushed == f.pages_pushed
        assert r.clock_ticks == f.clock_ticks
        assert r.peak_state_bytes == f.peak_state_bytes
        assert self._counters(r) == self._counters(f)

    @pytest.mark.parametrize("strategy", ("baseline", "feedforward"))
    def test_q2a_spills_at_64k(self, strategy):
        self._check_cell("Q2A", strategy, 64 * 1024)

    def _check_cell(self, qid, strategy, budget):
        """The governed cell against the ungoverned run, which it
        returns."""
        free = self._run(qid, strategy, None)
        governed = self._run(qid, strategy, budget)
        assert rows_equal(governed.result.rows, free.result.rows)
        assert governed.storage["peak_resident_bytes"] <= budget
        assert governed.storage["over_budget_events"] == 0
        assert (
            governed.result.metrics.spill_events
            == self.SPILL_EVENTS[qid, strategy, budget]
        )
        pruned = sum(
            c.tuples_pruned
            for c in governed.result.metrics.operators.values()
        )
        assert pruned == self.PRUNED[qid, strategy]
        again = self._run(qid, strategy, budget)
        assert self._observed(again) == self._observed(governed)
        return free


class TestBudgetSweep:
    """The ``exec_spill`` queries from a budget that pages table rows
    one by one to the spine's 256 KiB: governed runs take as many rows
    as a quarter of the budget holds, and the rows they hold past a
    page sit on the buffer pool's lease.  Whatever the budget, the
    rows, per-operator counters and AIP Bloom words are the ungoverned
    run's, and the governor never goes past its budget — not even
    where a spilled join partition outweighs the whole budget and is
    replayed in passes."""

    BUDGETS = (4608, 64 * 1024, 128 * 1024, 256 * 1024)
    CELLS = [
        (qid, strategy) for qid in ("Q2A", "Q4A", "Q5A")
        for strategy in ("baseline", "feedforward")
    ]

    @pytest.mark.parametrize("qid, strategy", CELLS)
    def test_rows_counters_and_words_hold_at_every_budget(
        self, qid, strategy
    ):
        fields = dict(order=ROUNDED, fields=PRESSURE_FIELDS)
        free = observe_result(*observed(
            run_workload_query, qid, strategy, scale_factor=SCALE,
        ), **fields)
        for budget in self.BUDGETS:
            record, summaries = observed(
                run_workload_query, qid, strategy, scale_factor=SCALE,
                memory_budget=budget,
            )
            assert observe_result(record, summaries, **fields) == free
            storage = record.storage
            assert storage["peak_resident_bytes"] <= budget, budget
            assert storage["over_budget_events"] == 0, budget


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
        governor = MemoryGovernor(32_768)
        ctx = ExecutionContext(catalog, governor=governor)
        try:
            results = run_concurrent(plans, ctx)
            assert governor.backend.pages_written > 0
            assert governor.peak_resident_bytes <= 32_768
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
            spool = Spool(self.ctx, created[0], 10, "explode")
            spool.append("record")
            spool.flush()
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
            result_cache=False, memory_budget=131_072,
        ) as service:
            service.submit("Q4A")
            service.run()
            # Only spools write: the directory holds operator state.
            assert service.governor.backend.pages_written > 0
            path = service.governor.backend.path
            assert path is not None and os.path.isdir(path)
        assert not os.path.exists(path)


    def test_engine_error_mid_run_returns_the_run_rows(self, monkeypatch):
        """A run's rows past its first page sit on the buffer pool's
        service-lifetime lease while they are pushed: an engine error
        mid-push must hand them back, or every later batch of the
        service starts with less budget."""
        from repro.exec.operators.scan import PScan
        from repro.service.query import Request
        from repro.service.service import QueryService

        real_push_run = PScan.push_run

        def push_run(scan, rows, seq):
            if scan.rows.run_nbytes(len(rows)):
                raise RuntimeError("operator fault")
            real_push_run(scan, rows, seq)

        with QueryService(
            cached_tpch(scale_factor=SCALE), strategy="baseline",
            aip_cache=False, result_cache=False, memory_budget=256 * 1024,
        ) as service:
            monkeypatch.setattr(PScan, "push_run", push_run)
            doomed = Request("Q2A")
            service.run_requests([doomed])
            monkeypatch.undo()
            assert "operator fault" in doomed.error
            assert service.governor.resident_bytes == 0
            after = Request("Q2A")
            service.run_requests([after])
            assert after.error is None
            assert service.governor.resident_bytes == 0

    @pytest.mark.parametrize("fail_at", (1, 5))
    def test_disk_full_fails_only_that_query(self, monkeypatch, fail_at):
        """A spool flush that hits ENOSPC fails its query with an error
        result, in bounded time.  The failed batch leaves no lease
        open, no spool on disk and no spill directory, and the same
        service's next governed query returns the right rows."""
        import errno
        import threading

        from repro.service.query import Request
        from repro.service.service import QueryService

        def run_bounded(service, request):
            worker = threading.Thread(
                target=service.run_requests, args=([request],), daemon=True,
            )
            worker.start()
            worker.join(60)
            assert not worker.is_alive(), "the service hung on a full disk"

        real_pwrite = os.pwrite
        writes = []

        def pwrite(fd, data, offset):
            writes.append(offset)
            if len(writes) >= fail_at:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_pwrite(fd, data, offset)

        expected = run_workload_query(
            "Q4A", "baseline", scale_factor=SCALE,
        ).result.rows
        with QueryService(
            cached_tpch(scale_factor=SCALE), strategy="baseline",
            aip_cache=False, result_cache=False, memory_budget=131_072,
        ) as service:
            governor = service.governor
            monkeypatch.setattr(os, "pwrite", pwrite)
            doomed = Request("Q4A")
            run_bounded(service, doomed)
            monkeypatch.undo()
            assert len(writes) == fail_at
            assert "No space left on device" in doomed.error
            assert governor.resident_bytes == 0
            assert [
                lease.label for lease in governor._leases if not lease.closed
            ] == ["buffer-pool"]
            assert not governor._spillables
            assert not governor.backend._extents
            assert governor.backend.path is None
            assert service.proclist() == []

            after = Request("Q4A")
            run_bounded(service, after)
            assert after.error is None
            assert rows_equal(after.result.rows, expected)
            assert governor.backend.pages_written > fail_at - 1
            assert governor.resident_bytes == 0


class TestServiceLifetimeGovernor:
    def test_spool_leases_do_not_pile_up_across_cycles(self):
        """A service-lifetime governor outlives every query: the leases
        of a finished query's spools must close, or each governed cycle
        leaves its spill spools' leases behind."""
        from repro.service.service import QueryService

        counts = []
        with QueryService(
            cached_tpch(scale_factor=SCALE), aip_cache=False,
            result_cache=False, memory_budget=256 * 1024,
        ) as service:
            governor = service.governor
            for _cycle in range(3):
                service.submit("Q5A", strategy="feedforward")
                service.run()
                counts.append(len(governor._leases))
                assert any(
                    lease.label.startswith("spool:")
                    for lease in governor._leases
                ), "no spool was opened: the cycle did not spill"
            assert governor.resident_bytes == 0
        assert counts[2] == counts[0]
