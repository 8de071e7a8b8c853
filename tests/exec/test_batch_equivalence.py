"""Cross-path equivalence: the page-driven engine loop must be
*observably identical* to tuple-at-a-time execution, the reference.

For every registered workload x strategy — including delayed-arrival
and distributed (source-filter) configurations, plus concurrent
(composite-strategy) batches, governed runs and the service layer — the
two paths must produce bit-identical rows (including order), virtual
clock, peak intermediate state, and per-operator counters.  The clock
guarantee rests on integer-tick accounting (``Metrics.charge_events``);
the peak-state guarantee rests on the engine only paging plans whose
mid-stream state deltas are all non-negative (``supports_batching``).

The streamed matrix paces every source, so a page there is almost
always one row.  The **immediate-arrival axis** makes every scan's
table available at t=0: pages hold whole tables, and the multi-row
pages a join or distinct emits flow into the downstream operators'
page kernels — the hop the streamed matrix never exercises.

A second axis covers the summary layer: the word-indexed Bloom bitset
(production) versus the retained big-int reference implementation
(``BigIntBloomFilter``), crossed with per-element versus batch summary
operations.  Identical bit positions mean every pruning decision — and
therefore rows, clock, peak state and ``pruned``/``probed`` counters —
must be bit-identical across all four combinations.

A fourth axis covers observability: a run with a live trace collector
must stay bit-identical to the untraced run on every observable —
tracing is pure observation, and the disabled path (``ctx.tracer is
None``, the default every other test in this file exercises) is the
exact pre-observability code.

A third axis covers the storage layer's memory budget:
``memory_budget=None`` takes the exact pre-storage code path (asserted
bit-identical by every test above, since it is the default); a governed
run with an effectively unbounded budget must emit identical rows in
identical order (pages stream, nothing spills); and a run at half the
observed peak must spill yet still produce the same row multiset while
the governor-reported resident peak stays under the budget.
"""

import pytest

from repro.data.tpch import cached_tpch
from repro.exec.arrival import ArrivalModel
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.expr.aggregates import COUNT, AggregateSpec
from repro.expr.expressions import col
from repro.harness.concurrent import run_concurrent
from repro.harness.runner import run_workload_query
from repro.harness.strategies import make_strategy, uses_magic_plan
from repro.plan.builder import scan
from repro.summaries.bloom import BigIntBloomFilter, bloom_impl
from repro.workloads.registry import QUERIES, get_query

SCALE = 0.001

#: Runtime strategies plus the magic-sets plan rewrite where available.
STRATEGY_NAMES = ("baseline", "feedforward", "costbased")


def _counter_rows(metrics):
    """Per-operator counters in id-allocation order (node ids differ
    across builds, but their relative order is deterministic)."""
    return [
        (c.tuples_in, c.tuples_out, c.tuples_pruned)
        for _, c in sorted(metrics.operators.items())
    ]


def _assert_identical(tuple_record, batch_record):
    _assert_results_identical(tuple_record.result, batch_record.result)


def _assert_results_identical(t, b):
    assert b.rows == t.rows  # same rows in the same order
    assert b.metrics.clock == t.metrics.clock
    assert b.metrics.cpu_time == t.metrics.cpu_time
    assert b.metrics.idle_time == t.metrics.idle_time
    assert b.metrics.peak_state_bytes == t.metrics.peak_state_bytes
    assert b.metrics.network_bytes == t.metrics.network_bytes
    assert _counter_rows(b.metrics) == _counter_rows(t.metrics)


def _matrix():
    cells = []
    for qid in sorted(QUERIES):
        for strategy in STRATEGY_NAMES:
            cells.append((qid, strategy, False))
        if get_query(qid).has_magic:
            cells.append((qid, "magic", False))
    # Delayed-arrival configurations (Section VI-B regime: the clock is
    # arrival dominated, so batches split at every idle gap).
    for qid in ("Q2A", "Q4A", "Q5A"):
        for strategy in STRATEGY_NAMES:
            cells.append((qid, strategy, True))
    return cells


@pytest.mark.parametrize("qid,strategy,delayed", _matrix())
def test_workload_strategy_equivalence(qid, strategy, delayed):
    tuple_record = run_workload_query(
        qid, strategy, scale_factor=SCALE, delayed=delayed,
        batch_execution=False,
    )
    batch_record = run_workload_query(
        qid, strategy, scale_factor=SCALE, delayed=delayed,
        batch_execution=True,
    )
    _assert_identical(tuple_record, batch_record)
    _assert_pages_iff_batchable(
        strategy, tuple_record.result, batch_record.result
    )


def _assert_pages_iff_batchable(strategy, tuple_result, page_result):
    """The page-only counters are zero on the tuple path and positive
    exactly when the plan is batchable."""
    assert tuple_result.metrics.pages_pushed == 0
    if strategy == "magic":
        # DAG plans decline batching, so they never page.
        assert page_result.metrics.pages_pushed == 0
    else:
        assert page_result.metrics.pages_pushed > 0
        assert page_result.metrics.rows_selected > 0


def _immediate(node):
    """Every source row available at t=0: a page holds a whole table."""
    return ArrivalModel.immediate()


def _run_immediate(plan, catalog, strategy, batch_execution, tracer=None):
    ctx = ExecutionContext(
        catalog, strategy=make_strategy(strategy),
        batch_execution=batch_execution,
    )
    ctx.tracer = tracer
    return execute_plan(plan, ctx, arrival_resolver=_immediate)


@pytest.mark.parametrize(
    "qid,strategy",
    [(qid, strategy) for qid, strategy, delayed in _matrix() if not delayed],
)
def test_immediate_arrival_equivalence(qid, strategy):
    query = get_query(qid)
    catalog = cached_tpch(scale_factor=SCALE, skew=query.skew)

    def run(batch_execution):
        plan = (
            query.build_magic(catalog) if uses_magic_plan(strategy)
            else query.build_baseline(catalog)
        )
        return _run_immediate(plan, catalog, strategy, batch_execution)

    tuple_result, page_result = run(False), run(True)
    _assert_results_identical(tuple_result, page_result)
    _assert_pages_iff_batchable(strategy, tuple_result, page_result)


class TestJoinBornPages:
    """The workload queries only put joins and group-bys (and one
    projection) downstream of a join; this plan routes a join's
    multi-row output through every remaining page kernel:
    join -> filter -> project -> distinct -> group-by."""

    @staticmethod
    def _plan(catalog):
        return (
            scan(catalog, "partsupp")
            .join(scan(catalog, "part"), on=[("ps_partkey", "p_partkey")])
            .filter(col("ps_availqty").le(5000))
            .project(["p_brand", "p_size", "ps_suppkey"])
            .distinct()
            .group_by(["p_brand"], [AggregateSpec(COUNT, None, "n")])
            .build()
        )

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_equivalence(self, strategy):
        catalog = cached_tpch(scale_factor=SCALE)
        tuple_result = _run_immediate(
            self._plan(catalog), catalog, strategy, False
        )
        page_result = _run_immediate(
            self._plan(catalog), catalog, strategy, True
        )
        assert len(tuple_result.rows) > 1
        _assert_results_identical(tuple_result, page_result)

    def test_multi_row_pages_reach_every_kernel(self):
        """The axis must not be vacuously single-row: each operator
        above the join receives at least one page of several rows."""
        from repro.obs.trace import Tracer

        catalog = cached_tpch(scale_factor=SCALE)
        tracer = Tracer()
        _run_immediate(
            self._plan(catalog), catalog, "baseline", True, tracer=tracer
        )
        multi_row = {
            event[1] for event in tracer.events
            if event[1].startswith("page:") and event[5]["rows"] > 1
        }
        assert {
            "page:Filter", "page:Project", "page:Distinct", "page:GroupBy",
        } <= multi_row


@pytest.mark.parametrize("qid,strategy,delayed", _matrix())
def test_summary_impl_equivalence(qid, strategy, delayed):
    """(big-int reference vs word-indexed) × (per-element vs batch).

    The word-indexed tuple-path run is the anchor; the big-int
    reference must match it on the tuple path (storage axis) and match
    itself across paths (batch axis).  Together with
    ``test_workload_strategy_equivalence`` (word-indexed tuple vs
    batch), all four combinations are pinned to one another.
    """
    word_tuple = run_workload_query(
        qid, strategy, scale_factor=SCALE, delayed=delayed,
        batch_execution=False,
    )
    with bloom_impl(BigIntBloomFilter):
        ref_tuple = run_workload_query(
            qid, strategy, scale_factor=SCALE, delayed=delayed,
            batch_execution=False,
        )
        ref_batch = run_workload_query(
            qid, strategy, scale_factor=SCALE, delayed=delayed,
            batch_execution=True,
        )
    _assert_identical(ref_tuple, word_tuple)
    _assert_identical(ref_tuple, ref_batch)


@pytest.mark.parametrize("qid,strategy,delayed", _matrix())
def test_memory_budget_axis(qid, strategy, delayed):
    """Unbounded → governed-unbounded → governed-at-half-peak."""
    from tests.helpers import rows_equal

    unbounded = run_workload_query(
        qid, strategy, scale_factor=SCALE, delayed=delayed,
        memory_budget=None,
    )
    # None is the default: no governor, no storage record — the whole
    # subsystem is absent, which is what keeps every bit-identical
    # assertion above meaningful.
    assert unbounded.storage is None

    calibrate = run_workload_query(
        qid, strategy, scale_factor=SCALE, delayed=delayed,
        memory_budget=1 << 40,
    )
    # Governed but never under pressure: paged scans must reproduce the
    # exact rows in the exact order (nothing defers).
    assert calibrate.result.rows == unbounded.result.rows
    assert calibrate.storage["spilled_bytes"] == 0

    peak = calibrate.storage["peak_resident_bytes"]
    budget = max(peak // 2, 4096)
    governed = run_workload_query(
        qid, strategy, scale_factor=SCALE, delayed=delayed,
        memory_budget=budget,
    )
    assert rows_equal(governed.result.rows, unbounded.result.rows)
    assert len(governed.result.rows) == len(unbounded.result.rows)
    assert governed.storage["peak_resident_bytes"] <= budget


class TestPagedAxis:
    """Page-path coverage beyond the single-query matrix: the memory
    governor and tracing (the concurrent loop and the service layer
    are ``TestConcurrentComposite`` and ``TestServiceLayer``)."""

    def test_governed_paged_equivalence(self):
        paths = {}
        for page in (False, True):
            paths[page] = run_workload_query(
                "Q4A", "feedforward", scale_factor=SCALE,
                memory_budget=1 << 40, batch_execution=page,
            )
        # A governor that never reclaims leaves the page kernels on
        # their ungoverned decisions: the run stays bit-identical.
        _assert_identical(paths[False], paths[True])
        assert paths[False].result.metrics.pages_pushed == 0
        assert paths[True].result.metrics.pages_pushed > 0

    def test_page_trace_events_validate(self):
        from repro.obs.trace import Tracer, validate_chrome_trace

        tracer = Tracer()
        record = run_workload_query(
            "Q4A", "feedforward", scale_factor=SCALE, tracer=tracer,
        )
        assert record.result.metrics.pages_pushed > 0
        page_events = [e for e in tracer.events if e[1].startswith("page:")]
        assert page_events
        for event in page_events:
            assert event[2] == "op"
            assert set(event[5]) == {"rows", "selected"}
        assert validate_chrome_trace(tracer.to_chrome()) == []


class TestTracedAxis:
    """Tracing enabled vs disabled: a live Tracer must leave rows,
    clock, peak state and counters bit-identical on both execution
    paths, while actually recording events."""

    CELLS = [
        (qid, strategy, delayed)
        for qid in ("Q2A", "Q4A")
        for strategy in STRATEGY_NAMES
        for delayed in (False, True)
    ]

    @pytest.mark.parametrize("qid,strategy,delayed", CELLS)
    @pytest.mark.parametrize("batch", (False, True))
    def test_traced_equivalence(self, qid, strategy, delayed, batch):
        from repro.obs.trace import Tracer, validate_chrome_trace

        untraced = run_workload_query(
            qid, strategy, scale_factor=SCALE, delayed=delayed,
            batch_execution=batch,
        )
        tracer = Tracer()
        traced = run_workload_query(
            qid, strategy, scale_factor=SCALE, delayed=delayed,
            batch_execution=batch, tracer=tracer,
        )
        _assert_identical(untraced, traced)
        assert len(tracer) > 0
        assert validate_chrome_trace(tracer.to_chrome()) == []

    @pytest.mark.parametrize("qid", ("Q2A", "Q4A", "Q5A"))
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("batch", (False, True))
    def test_traced_immediate_equivalence(self, qid, strategy, batch):
        """Whole-table pages: the ``emit:``/``page:`` instants of the
        kernels above a join (Q2A and Q4A: group-by, Q5A: projection)
        are pure observation too."""
        from repro.obs.trace import Tracer, validate_chrome_trace

        catalog = cached_tpch(scale_factor=SCALE)
        query = get_query(qid)
        untraced = _run_immediate(
            query.build_baseline(catalog), catalog, strategy, batch,
        )
        tracer = Tracer()
        traced = _run_immediate(
            query.build_baseline(catalog), catalog, strategy, batch,
            tracer=tracer,
        )
        _assert_results_identical(untraced, traced)
        assert len(tracer) > 0
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_traced_service_equivalence(self):
        from repro.obs.trace import Tracer
        from repro.service.service import QueryService

        def report(tracer):
            catalog = cached_tpch(scale_factor=SCALE)
            service = QueryService(
                catalog, strategy="feedforward", tracer=tracer,
            )
            service.submit("Q1A", arrival=0.0)
            service.submit("Q4A", arrival=0.0)
            service.submit("Q3A", arrival=0.5, strategy="costbased")
            out = service.run()
            service.close()
            return out

        untraced = report(None)
        tracer = Tracer()
        traced = report(tracer)
        assert (
            traced.total_virtual_seconds == untraced.total_virtual_seconds
        )
        assert traced.peak_state_bytes == untraced.peak_state_bytes
        for t, b in zip(untraced.outcomes, traced.outcomes):
            assert b.status == t.status
            assert b.latency == t.latency
            assert b.rows == t.rows
        names = {event[1] for event in tracer.events}
        assert "service.batch" in names
        assert "admission.admit" in names
        assert "sched.pick" in names


class TestDistributedSummaryEquivalence:
    """Distributed cost-based runs ship Bloom filters to remote scans
    (serialized by geometry + words); rows, clock, shipped bytes and
    counters must agree across storage implementations and paths."""

    def _run(self, batch_execution):
        from repro.aip.manager import CostBasedStrategy
        from repro.distributed.coordinator import DistributedQuery
        from repro.distributed.network import MBPS, NetworkModel
        from repro.distributed.site import Placement, Site
        from repro.expr.expressions import col
        from repro.plan.builder import scan

        catalog = cached_tpch(scale_factor=0.002)
        plan = (
            scan(catalog, "part")
            .filter(col("p_size").le(5))
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        ctx = ExecutionContext(
            catalog,
            strategy=CostBasedStrategy(poll_interval=0.01),
            batch_execution=batch_execution,
        )
        result = DistributedQuery(
            plan,
            Placement([Site("s1", ["partsupp"])]),
            NetworkModel(default_bandwidth=2 * MBPS),
        ).execute(ctx)
        return ctx, result

    def test_distributed_equivalence(self):
        records = {}
        for impl in ("word", "bigint"):
            for batch in (False, True):
                if impl == "bigint":
                    with bloom_impl(BigIntBloomFilter):
                        records[(impl, batch)] = self._run(batch)
                else:
                    records[(impl, batch)] = self._run(batch)
        ctx0, result0 = records[("word", False)]
        # The cell is only meaningful if a filter actually shipped.
        assert ctx0.metrics.aip_bytes_shipped > 0
        for key, (ctx, result) in records.items():
            assert result.rows == result0.rows, key
            assert ctx.metrics.clock == ctx0.metrics.clock, key
            assert ctx.metrics.network_bytes == ctx0.metrics.network_bytes
            assert (
                ctx.metrics.aip_bytes_shipped
                == ctx0.metrics.aip_bytes_shipped
            )
            assert (
                ctx.metrics.peak_state_bytes == ctx0.metrics.peak_state_bytes
            )
            assert _counter_rows(ctx.metrics) == _counter_rows(ctx0.metrics)


class TestConcurrentComposite:
    """Mixed-strategy concurrent batches on one shared clock."""

    def _run(self, batch_execution):
        catalog = cached_tpch(scale_factor=SCALE)
        plans = [
            get_query("Q4A").build_baseline(catalog),
            get_query("Q1A").build_baseline(catalog),
            get_query("Q1A").build_magic(catalog),
        ]
        strategies = [
            make_strategy("feedforward"),
            make_strategy("costbased"),
            None,
        ]
        ctx = ExecutionContext(catalog, batch_execution=batch_execution)
        results = run_concurrent(plans, ctx, strategies=strategies)
        return ctx, results

    def test_composite_equivalence(self):
        ctx_t, results_t = self._run(batch_execution=False)
        ctx_b, results_b = self._run(batch_execution=True)
        for t, b in zip(results_t, results_b):
            assert b.rows == t.rows
        assert ctx_b.metrics.clock == ctx_t.metrics.clock
        assert (
            ctx_b.metrics.peak_state_bytes == ctx_t.metrics.peak_state_bytes
        )
        assert _counter_rows(ctx_b.metrics) == _counter_rows(ctx_t.metrics)
        assert ctx_t.metrics.pages_pushed == 0
        assert ctx_b.metrics.pages_pushed > 0


class TestServiceLayer:
    """The service layer runs the page path by default and reports the
    same outcomes either way."""

    def _service(self, batch_execution):
        from repro.service.service import QueryService

        catalog = cached_tpch(scale_factor=SCALE)
        service = QueryService(
            catalog, strategy="feedforward",
            batch_execution=batch_execution,
        )
        service.submit("Q1A", arrival=0.0)
        service.submit("Q4A", arrival=0.0)
        service.submit("Q3A", arrival=0.5, strategy="costbased")
        return service

    def _report(self, batch_execution):
        return self._service(batch_execution).run()

    def test_service_equivalence(self):
        tuple_service = self._service(batch_execution=False)
        page_service = self._service(batch_execution=True)
        tuple_report, batch_report = tuple_service.run(), page_service.run()
        assert (
            batch_report.total_virtual_seconds
            == tuple_report.total_virtual_seconds
        )
        assert (
            batch_report.peak_state_bytes == tuple_report.peak_state_bytes
        )
        for t, b in zip(batch_report.outcomes, tuple_report.outcomes):
            assert b.status == t.status
            assert b.latency == t.latency
            assert b.rows == t.rows

        def pages(service):
            return service.registry.counter("engine.pages_pushed").value

        assert pages(tuple_service) == 0
        assert pages(page_service) > 0

    def test_service_summary_impl_equivalence(self):
        """Service runs (admission, schedulers, cross-query AIP cache
        re-injection) under the big-int reference summaries report the
        same outcomes as the word-indexed production path."""
        word_report = self._report(batch_execution=True)
        with bloom_impl(BigIntBloomFilter):
            ref_report = self._report(batch_execution=True)
        assert (
            ref_report.total_virtual_seconds
            == word_report.total_virtual_seconds
        )
        assert ref_report.peak_state_bytes == word_report.peak_state_bytes
        for t, b in zip(word_report.outcomes, ref_report.outcomes):
            assert b.status == t.status
            assert b.latency == t.latency
            assert b.rows == t.rows

    def test_service_batches_by_default(self):
        from repro.service.service import QueryService

        catalog = cached_tpch(scale_factor=SCALE)
        assert QueryService(catalog).batch_execution


class TestBudgetedFeedForward:
    """A memory-budgeted Feed-Forward run sheds working sets on a
    per-row countdown; it must decline batching (batch_safe=False) so
    shed decisions keep their cadence — and thus stay equivalent."""

    def _run(self, batch_execution):
        return run_workload_query(
            "Q1A", "feedforward", scale_factor=SCALE,
            strategy_kwargs={"memory_budget": 4096},
            batch_execution=batch_execution,
        )

    def test_budgeted_ff_is_not_batch_safe(self):
        strategy = make_strategy("feedforward", memory_budget=4096)
        assert not strategy.batch_safe
        assert make_strategy("feedforward").batch_safe

    def test_budgeted_ff_equivalence(self):
        _assert_identical(
            self._run(batch_execution=False), self._run(batch_execution=True)
        )


class TestBatchGate:
    """Plans with mid-stream state releases or shared subexpressions
    must decline batching (the per-tuple path is the reference)."""

    def test_tree_plan_batchable(self):
        from repro.exec.translate import translate

        catalog = cached_tpch(scale_factor=SCALE)
        plan = get_query("Q4A").build_baseline(catalog)
        physical = translate(plan, ExecutionContext(catalog))
        assert physical.supports_batching()

    def test_magic_plan_not_batchable(self):
        from repro.exec.translate import translate

        catalog = cached_tpch(scale_factor=SCALE)
        plan = get_query("Q1A").build_magic(catalog)
        physical = translate(plan, ExecutionContext(catalog))
        # Magic rewrites share the outer query (DAG) and pipe it through
        # a semijoin whose pending buffer flushes mid-stream.
        assert not physical.supports_batching()


class TestMergedArrivalRuns:
    """Streamed sources are all backlogged within the first virtual
    milliseconds, so a drive step takes every source's arrived rows as
    one merged run, ordered by the heap's ``(when, source index)`` key.
    These cells run at the spine's ``exec_mix`` scale, where the runs
    are long; before merged runs a page there held 0.8 rows."""

    MIX_SCALE = 0.005

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("qid", ("Q1A", "Q2A", "Q3A", "Q4A", "Q5A"))
    def test_exec_mix_scale_equivalence(self, qid, strategy):
        tuple_record, page_record = (
            run_workload_query(
                qid, strategy, scale_factor=self.MIX_SCALE,
                batch_execution=batch,
            )
            for batch in (False, True)
        )
        _assert_identical(tuple_record, page_record)

    def test_streamed_q2a_pushes_few_pages(self):
        record = run_workload_query(
            "Q2A", "baseline", scale_factor=self.MIX_SCALE,
        )
        # 122,024 single-row pages when a page stopped at every other
        # source's next arrival.
        assert 0 < record.result.metrics.pages_pushed <= 200

    @staticmethod
    def _three_source_plan(catalog):
        # supplier is far shorter than part and partsupp: it exhausts
        # part-way through a run, which must cut the run right there.
        return (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .join(scan(catalog, "supplier"), on=[("ps_suppkey", "s_suppkey")])
            .build()
        )

    def _run_streamed(self, batch_execution):
        catalog = cached_tpch(scale_factor=0.002)
        ctx = ExecutionContext(catalog, batch_execution=batch_execution)
        # Equal rates from t=0: every step ties across sources, so the
        # source-index tie-break decides the order joins see.
        return execute_plan(
            self._three_source_plan(catalog), ctx,
            arrival_resolver=lambda node: ArrivalModel.streaming(),
        )

    def test_equal_rate_tie_break_and_exhaustion_cut(self):
        tuple_result = self._run_streamed(False)
        page_result = self._run_streamed(True)
        assert len(tuple_result.rows) > 100
        _assert_results_identical(tuple_result, page_result)
        n_in = sum(
            c.tuples_in for c in page_result.metrics.operators.values()
        )
        # Merged, not one row per page.
        assert page_result.metrics.pages_pushed * 20 < n_in


class TestRunMemory:
    """A run is capped (``engine.RUN_ROWS``, or one page under a memory
    governor): materialising a whole table's arrival times and pages at
    once would add megabytes to the engine's peak, which the served
    process's RSS would show."""

    @staticmethod
    def _peak_bytes(qid, batch_execution, scale=0.005, budget=None):
        import tracemalloc

        from repro.exec.engine import Engine
        from repro.exec.translate import translate
        from repro.storage.governor import MemoryGovernor

        query = get_query(qid)
        catalog = cached_tpch(scale_factor=scale, skew=query.skew)
        governor = MemoryGovernor(budget) if budget is not None else None
        ctx = ExecutionContext(
            catalog, batch_execution=batch_execution, governor=governor,
        )
        try:
            plan = translate(query.build_baseline(catalog), ctx)
            ctx.strategy.attach(ctx, plan)
            tracemalloc.start()
            try:
                Engine(ctx).run(plan)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        finally:
            if governor is not None:
                governor.close()

    @pytest.mark.parametrize("qid", ("Q2A", "Q4A", "Q5A"))
    def test_page_peak_within_two_mib_of_tuple_peak(self, qid):
        tuple_peak = self._peak_bytes(qid, False)
        page_peak = self._peak_bytes(qid, True)
        assert page_peak <= tuple_peak + (2 << 20)

    def test_governed_page_peak_within_two_mib_of_tuple_peak(self):
        # An exec_spill cell: the governed run cap is one buffer-pool
        # page, so the rows in flight stay near the tuple path's
        # one-page row memo.
        tuple_peak, page_peak = (
            self._peak_bytes("Q2A", batch, scale=0.002, budget=256 * 1024)
            for batch in (False, True)
        )
        assert page_peak <= tuple_peak + (2 << 20)


def test_local_partitions_merge_in_arrival_order():
    """Partitions paced by a plain (site-blind) resolver are local
    sources, so one run holds several partitions' rows: ``PMerge``
    must forward them in the run's order, as the tuple path does (the
    filter and sink above it keep whatever order it emits)."""
    from repro.distributed.coordinator import mark_remote_scans
    from repro.distributed.site import Placement

    catalog = cached_tpch(scale_factor=0.002)
    placement = Placement()
    placement.partition_table(
        "partsupp", "ps_partkey", ["s0", "s1", "s2"],
    )

    def run(batch_execution):
        plan = (
            scan(catalog, "partsupp")
            .filter(col("ps_availqty").le(5000))
            .build()
        )
        mark_remote_scans(plan, placement)
        ctx = ExecutionContext(catalog, batch_execution=batch_execution)
        return execute_plan(
            plan, ctx, arrival_resolver=lambda node: ArrivalModel.streaming(),
        )

    tuple_result, page_result = run(False), run(True)
    assert len(tuple_result.rows) > 100
    _assert_results_identical(tuple_result, page_result)
