"""Engine equivalence, checked against recorded goldens.

The engine has one loop: every plan's sources are driven in arrival
runs, carried as :class:`~repro.exec.pages.ColumnBatch` pages through
the operators' column kernels — tree plans, magic-sets DAG plans and
their semijoins, and budgeted Feed-Forward alike.  Every cell below
runs the engine once and checks it against its
``tests/goldens/engine.json`` cell.  The goldens were recorded while a
tuple-at-a-time loop still ran beside the page loop (and a big-int
Bloom bitset beside the word-indexed one), from byte-identical runs of
all of them: rows (including order), virtual clock, peak intermediate
state, per-operator counters and the words of every Bloom filter the
run's AIP sets built.  The clock guarantee rests on integer-tick
accounting (``Metrics.charge_events``).

The streamed matrix paces every source; a drive step takes every
source's arrived rows as one merged run, so its pages hold tens to
hundreds of rows.  The **immediate-arrival axis** makes every scan's
table available at t=0: pages hold whole tables, and the multi-row
pages a join or distinct emits flow into the downstream operators'
page kernels.

The **summary axis** pins the Bloom words of every AIP set a matrix
cell builds (``aip_words_sha256``): bit positions decide every false
positive, and with them every pruning decision, counter and clock
charge.

The **traced axis**: a run with a live trace collector must match the
untraced golden on every observable — tracing is pure observation.

The **memory-budget axis**: a governed run with an effectively
unbounded budget must match the ungoverned golden exactly (pages
stream, nothing spills); a run at half the observed peak must spill
yet still produce the same row multiset while the governor-reported
resident peak stays under the budget.
"""

import functools

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
from repro.storage.governor import MemoryGovernor
from repro.workloads.registry import QUERIES, get_query

from tests.goldens import (
    ENGINE, PARTITION, PRESSURE_FIELDS, ROUNDED, assert_matches_golden,
    cell_key, load, observe, observe_result, observed, rows_fields,
)

SCALE = 0.001

#: Runtime strategies plus the magic-sets plan rewrite where available.
STRATEGY_NAMES = ("baseline", "feedforward", "costbased")

#: The golden fields a summary-axis cell checks.
SUMMARY_FIELDS = ("aip_words_sha256",)


def _arrival(delayed):
    return "delayed" if delayed else "streamed"


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


@functools.lru_cache(maxsize=None)
def _matrix_run(qid, strategy, delayed):
    """One matrix cell's run, shared by the workload and summary axes:
    its golden observation plus its page counters."""
    record, summaries = observed(
        run_workload_query, qid, strategy, scale_factor=SCALE,
        delayed=delayed,
    )
    metrics = record.result.metrics
    return (
        observe_result(record, summaries),
        metrics.pages_pushed, metrics.rows_selected,
    )


@pytest.mark.parametrize("qid,strategy,delayed", _matrix())
def test_workload_strategy_equivalence(qid, strategy, delayed):
    observation, pages, selected = _matrix_run(qid, strategy, delayed)
    key = cell_key(qid, strategy, _arrival(delayed))
    assert_matches_golden(key, observation, fields=[
        name for name in load(ENGINE).get(key, ())
        if name not in SUMMARY_FIELDS
    ])
    _assert_pages(pages, selected)


@pytest.mark.parametrize("qid,strategy,delayed", _matrix())
def test_summary_impl_equivalence(qid, strategy, delayed):
    """The Bloom words of every AIP set the cell built equal the
    golden's, recorded from the word-indexed and the big-int bitset
    alike: the production summary holds the reference bit positions
    where the pruning decisions are made (reuses the matrix run)."""
    observation, _, _ = _matrix_run(qid, strategy, delayed)
    assert_matches_golden(
        cell_key(qid, strategy, _arrival(delayed)), observation,
        fields=SUMMARY_FIELDS,
    )


def _assert_pages(pages_pushed, rows_selected):
    """Every cell runs on the page path: there is no other."""
    assert pages_pushed > 0
    assert rows_selected > 0


def _immediate(node):
    """Every source row available at t=0: a page holds a whole table."""
    return ArrivalModel.immediate()


def _run_immediate(plan, catalog, strategy, tracer=None, budget=None):
    governor = None
    if budget is not None:
        governor = MemoryGovernor(budget)
        governor.tracer = tracer
    ctx = ExecutionContext(
        catalog, strategy=make_strategy(strategy), governor=governor,
    )
    ctx.tracer = tracer
    return execute_plan(plan, ctx, arrival_resolver=_immediate)


def _immediate_query_run(qid, strategy, tracer=None, budget=None):
    query = get_query(qid)
    catalog = cached_tpch(scale_factor=SCALE, skew=query.skew)
    plan = query.build(catalog, uses_magic_plan(strategy))
    return observed(
        _run_immediate, plan, catalog, strategy, tracer=tracer, budget=budget,
    )


def _immediate_cells():
    return [(qid, strategy) for qid, strategy, delayed in _matrix()
            if not delayed]


@pytest.mark.parametrize("qid,strategy", _immediate_cells())
def test_immediate_arrival_equivalence(qid, strategy):
    result, summaries = _immediate_query_run(qid, strategy)
    assert_matches_golden(
        cell_key(qid, strategy, "immediate"),
        observe_result(result, summaries),
    )
    _assert_pages(result.metrics.pages_pushed, result.metrics.rows_selected)


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

    @classmethod
    def _run(cls, strategy):
        catalog = cached_tpch(scale_factor=SCALE)
        return observed(_run_immediate, cls._plan(catalog), catalog, strategy)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_equivalence(self, strategy):
        result, summaries = self._run(strategy)
        assert len(result.rows) > 1
        assert_matches_golden(
            cell_key("join_born", strategy, "immediate"),
            observe_result(result, summaries),
        )

    def test_multi_row_pages_reach_every_kernel(self):
        """The axis must not be vacuously single-row: each operator
        above the join receives at least one page of several rows."""
        from repro.obs.trace import Tracer

        catalog = cached_tpch(scale_factor=SCALE)
        tracer = Tracer()
        _run_immediate(self._plan(catalog), catalog, "baseline", tracer=tracer)
        multi_row = {
            event[1] for event in tracer.events
            if event[1].startswith("page:") and event[5]["rows"] > 1
        }
        assert {
            "page:Filter", "page:Project", "page:Distinct", "page:GroupBy",
        } <= multi_row


def _governed_runs(qid, strategy, delayed):
    """Governed-unbounded, then governed at half its resident peak:
    each as ``(record, summaries)``, plus the half-peak budget."""
    calibrate = observed(
        run_workload_query, qid, strategy, scale_factor=SCALE,
        delayed=delayed, memory_budget=1 << 40,
    )
    budget = max(calibrate[0].storage["peak_resident_bytes"] // 2, 4096)
    governed = observed(
        run_workload_query, qid, strategy, scale_factor=SCALE,
        delayed=delayed, memory_budget=budget,
    )
    return calibrate, governed, budget


def _half_peak_observation(governed):
    return observe_result(*governed, order=ROUNDED, fields=PRESSURE_FIELDS)


@pytest.mark.parametrize("qid,strategy,delayed", _matrix())
def test_memory_budget_axis(qid, strategy, delayed):
    """Governed-unbounded and governed-at-half-peak against the
    ungoverned golden."""
    calibrate, governed, budget = _governed_runs(qid, strategy, delayed)
    # Governed but never under pressure: paged scans reproduce the
    # ungoverned run exactly (nothing defers).
    assert_matches_golden(
        cell_key(qid, strategy, _arrival(delayed)),
        observe_result(*calibrate),
    )
    assert calibrate[0].storage["spilled_bytes"] == 0
    # Under pressure: the same row multiset, resident peak in budget.
    assert_matches_golden(
        cell_key(qid, strategy, _arrival(delayed), "half-peak"),
        _half_peak_observation(governed),
    )
    assert governed[0].storage["peak_resident_bytes"] <= budget


class TestPagedAxis:
    """Page-path coverage beyond the single-query matrix: the memory
    governor and tracing (the concurrent loop and the service layer
    are ``TestConcurrentComposite`` and ``TestServiceLayer``)."""

    def test_governed_paged_equivalence(self):
        record, summaries = observed(
            run_workload_query, "Q4A", "feedforward", scale_factor=SCALE,
            memory_budget=1 << 40,
        )
        # A governor that never reclaims leaves the page kernels on
        # their ungoverned decisions: the run matches the ungoverned
        # golden bit for bit.
        assert_matches_golden(
            cell_key("Q4A", "feedforward"),
            observe_result(record, summaries),
        )
        assert record.result.metrics.pages_pushed > 0

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
    """Tracing enabled: a live Tracer must leave rows, clock, peak state
    and counters equal to the untraced golden, ungoverned and under a
    governor that never reclaims (whose storage hooks then fire too),
    while actually recording events."""

    #: A budget no test cell comes near: nothing defers or spills, so a
    #: governed run matches the ungoverned golden.
    UNBOUNDED = 1 << 40

    CELLS = [
        (qid, strategy, delayed)
        for qid in ("Q2A", "Q4A")
        for strategy in STRATEGY_NAMES
        for delayed in (False, True)
    ]

    @staticmethod
    def _check(key, record, summaries, tracer, governed=False):
        from repro.obs.trace import validate_chrome_trace

        assert_matches_golden(key, observe_result(record, summaries))
        assert len(tracer) > 0
        assert validate_chrome_trace(tracer.to_chrome()) == []
        categories = {event[2] for event in tracer.events}
        assert ("governor" in categories) == governed

    @pytest.mark.parametrize("qid,strategy,delayed", CELLS)
    @pytest.mark.parametrize("governed", (False, True))
    def test_traced_equivalence(self, qid, strategy, delayed, governed):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        record, summaries = observed(
            run_workload_query, qid, strategy, scale_factor=SCALE,
            delayed=delayed, tracer=tracer,
            memory_budget=self.UNBOUNDED if governed else None,
        )
        assert record.result.metrics.pages_pushed > 0
        assert (record.storage is not None) == governed
        self._check(
            cell_key(qid, strategy, _arrival(delayed)), record, summaries,
            tracer, governed,
        )

    @pytest.mark.parametrize("cell", ("magic", "budgeted-feedforward"))
    def test_traced_dag_and_budgeted_equivalence(self, cell):
        """The cells the page path took over last are traced too: a
        magic-sets (DAG) plan, whose shared operators hand each page to
        both parents, and a budgeted Feed-Forward run, which sheds
        working sets between pages."""
        from repro.obs.trace import Tracer

        tracer = Tracer()
        if cell == "magic":
            key = cell_key("Q2A", "magic")
            record, summaries = observed(
                run_workload_query, "Q2A", "magic", scale_factor=SCALE,
                tracer=tracer,
            )
            result = record.result
        else:
            key = TestBudgetedFeedForward.KEY
            (_, result), summaries = observed(
                TestBudgetedFeedForward.run, tracer=tracer,
            )
        assert result.metrics.pages_pushed > 0
        self._check(key, result, summaries, tracer)

    @pytest.mark.parametrize("qid", ("Q2A", "Q4A", "Q5A"))
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("governed", (False, True))
    def test_traced_immediate_equivalence(self, qid, strategy, governed):
        """Whole-table pages: the ``emit:``/``page:`` instants of the
        kernels above a join (Q2A and Q4A: group-by, Q5A: projection)
        are pure observation too."""
        from repro.obs.trace import Tracer

        tracer = Tracer()
        result, summaries = _immediate_query_run(
            qid, strategy, tracer=tracer,
            budget=self.UNBOUNDED if governed else None,
        )
        self._check(
            cell_key(qid, strategy, "immediate"), result, summaries, tracer,
            governed,
        )

    def test_traced_service_equivalence(self):
        from repro.obs.trace import Tracer

        tracer = Tracer()
        service = TestServiceLayer.service(tracer=tracer)
        report = service.run()
        service.close()
        assert_matches_golden(
            TestServiceLayer.KEY, TestServiceLayer.observe(report),
        )
        names = {event[1] for event in tracer.events}
        assert "service.batch" in names
        assert "admission.admit" in names
        assert "sched.pick" in names


class TestDistributedSummaryEquivalence:
    """Distributed cost-based runs ship Bloom filters to remote scans
    (serialized by geometry + words); rows, clock, shipped bytes and
    counters must match the golden."""

    KEY = cell_key("part-filter+remote-partsupp@0.002", "costbased", "remote")

    @staticmethod
    def run():
        from repro.aip.manager import CostBasedStrategy
        from repro.distributed.coordinator import DistributedQuery
        from repro.distributed.network import MBPS, NetworkModel
        from repro.distributed.site import Placement, Site

        catalog = cached_tpch(scale_factor=0.002)
        plan = (
            scan(catalog, "part")
            .filter(col("p_size").le(5))
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        ctx = ExecutionContext(
            catalog, strategy=CostBasedStrategy(poll_interval=0.01),
        )
        result = DistributedQuery(
            plan,
            Placement([Site("s1", ["partsupp"])]),
            NetworkModel(default_bandwidth=2 * MBPS),
        ).execute(ctx)
        return ctx, result

    @classmethod
    def observation(cls):
        (ctx, result), summaries = observed(cls.run)
        return ctx, observe(
            result.rows, ctx.metrics, summaries=summaries, aip_bytes=True,
        )

    def test_distributed_equivalence(self):
        ctx, observation = self.observation()
        # The cell is only meaningful if a filter actually shipped.
        assert ctx.metrics.aip_bytes_shipped > 0
        assert_matches_golden(self.KEY, observation)


class TestConcurrentComposite:
    """Mixed-strategy concurrent batches on one shared clock."""

    KEY = cell_key("Q4A+Q1A+Q1A", "feedforward+costbased+magic")

    @staticmethod
    def run(on_plan_translated=None):
        catalog = cached_tpch(scale_factor=SCALE)
        plans = [
            get_query("Q4A").build_baseline(catalog),
            get_query("Q1A").build_baseline(catalog),
            get_query("Q1A").build(catalog, magic=True),
        ]
        strategies = [
            make_strategy("feedforward"),
            make_strategy("costbased"),
            None,
        ]
        ctx = ExecutionContext(catalog)
        results = run_concurrent(
            plans, ctx, strategies=strategies,
            on_plan_translated=on_plan_translated,
        )
        return ctx, results

    @classmethod
    def observation(cls):
        (ctx, results), summaries = observed(cls.run)
        rows = [row for result in results for row in result.rows]
        return ctx, observe(rows, ctx.metrics, summaries=summaries)

    def test_composite_equivalence(self):
        ctx, observation = self.observation()
        assert_matches_golden(self.KEY, observation)
        assert ctx.metrics.pages_pushed > 0

    def test_every_plan_takes_merged_runs(self, monkeypatch):
        """Tree plans and the magic (DAG) plan beside them share merged,
        multi-row runs on the one clock.  (Kept to one-source runs, the
        magic plan's backlog would cut the tree plans' runs to 4.2 and
        1.0 rows on average.)"""
        from repro.exec.operators.scan import PScan

        plan_of, runs = {}, {0: [], 1: [], 2: []}
        real_push_run = PScan.push_run

        def push_run(scan, rows, seq):
            runs[plan_of[scan]].append((len(rows), seq is not None))
            real_push_run(scan, rows, seq)

        def on_translated(index, physical):
            plan_of.update((s, index) for s in physical.scans)

        monkeypatch.setattr(PScan, "push_run", push_run)
        self.run(on_plan_translated=on_translated)
        for index in (0, 1, 2):
            rows = sum(n for n, _ in runs[index])
            assert any(merged for _, merged in runs[index])
            assert rows / len(runs[index]) >= 20


class TestServiceLayer:
    """The service layer runs the page path and reports the golden
    outcomes."""

    KEY = cell_key("Q1A+Q4A+Q3A", "service:feedforward", "service")

    @staticmethod
    def service(tracer=None):
        from repro.service.service import QueryService

        catalog = cached_tpch(scale_factor=SCALE)
        service = QueryService(catalog, strategy="feedforward", tracer=tracer)
        service.submit("Q1A", arrival=0.0)
        service.submit("Q4A", arrival=0.0)
        service.submit("Q3A", arrival=0.5, strategy="costbased")
        return service

    @staticmethod
    def observe(report):
        outcomes = report.outcomes
        fields = rows_fields([
            row for o in outcomes
            for row in (o.result.rows if o.result is not None else ())
        ])
        fields.update(
            statuses=[o.status for o in outcomes],
            latencies=[float.hex(o.latency) for o in outcomes],
            outcome_rows=[o.rows for o in outcomes],
            total_virtual_seconds=float.hex(report.total_virtual_seconds),
            peak_state_bytes=report.peak_state_bytes,
        )
        return fields

    @classmethod
    def observation(cls):
        service = cls.service()
        try:
            return cls.observe(service.run())
        finally:
            service.close()

    def test_service_equivalence(self):
        service = self.service()
        try:
            assert_matches_golden(self.KEY, self.observe(service.run()))
            pages = service.registry.counter("engine.pages_pushed").value
        finally:
            service.close()
        assert pages > 0


class TestBudgetedFeedForward:
    """A memory-budgeted Feed-Forward run sheds working sets when its
    countdown of inserted rows expires, every 256 rows inserted."""

    KEY = cell_key("Q1A", "feedforward[memory_budget=4096]")

    @staticmethod
    def run(tracer=None):
        """The cell's run: ``(strategy, result)``."""
        query = get_query("Q1A")
        catalog = cached_tpch(scale_factor=SCALE, skew=query.skew)
        strategy = make_strategy("feedforward", memory_budget=4096)
        ctx = ExecutionContext(catalog, strategy=strategy)
        ctx.tracer = tracer
        return strategy, execute_plan(query.build_baseline(catalog), ctx)

    @classmethod
    def observation(cls):
        (_, result), summaries = observed(cls.run)
        return observe_result(result, summaries)

    def test_budgeted_ff_equivalence(self):
        assert_matches_golden(self.KEY, self.observation())

    def test_budgeted_ff_sheds_on_page_path(self):
        strategy, result = self.run()
        assert result.metrics.pages_pushed > 0
        assert strategy.working_sets_discarded > 0

    def test_shed_check_cadence_does_not_grow_with_the_page(
        self, monkeypatch,
    ):
        """Whole-table pages: the check still runs after the first row
        a working set takes and then every 256 rows, not once a page.
        (The budget is loose, so nothing is shed and no set is dropped
        mid-page.)"""
        from repro.aip.feedforward import FeedForwardStrategy

        seen = {"rows": 0, "checks": 0, "largest": 0}
        hook = FeedForwardStrategy.after_tuples_page
        enforce = FeedForwardStrategy._enforce_budget

        def count_rows(strategy, op, port, page):
            if strategy._working.get((op.op_id, port)):
                seen["rows"] += page.n_rows
                seen["largest"] = max(seen["largest"], page.n_rows)
            hook(strategy, op, port, page)

        def count_checks(strategy):
            seen["checks"] += 1
            enforce(strategy)

        monkeypatch.setattr(
            FeedForwardStrategy, "after_tuples_page", count_rows
        )
        monkeypatch.setattr(
            FeedForwardStrategy, "_enforce_budget", count_checks
        )
        query = get_query("Q4A")
        # At this scale the joins hand working sets pages of up to 300.
        catalog = cached_tpch(scale_factor=0.002, skew=query.skew)
        strategy = make_strategy("feedforward", memory_budget=1 << 20)
        ctx = ExecutionContext(catalog, strategy=strategy)
        execute_plan(
            query.build_baseline(catalog), ctx, arrival_resolver=_immediate,
        )
        assert strategy.working_sets_discarded == 0
        assert seen["largest"] > 256
        assert seen["checks"] == 1 + (seen["rows"] - 1) // 256


class TestSharedSubexpression:
    """A magic-sets rewrite shares the outer query between the final
    join and the filter set: an operator with two parents.  A merged
    run's flush visits each stashing operator after every one below it,
    over every parent edge.  A depth along first parents only would
    lean on the order of the parent list: reversed, the shared join
    would flush after the filter-set branch above it."""

    @pytest.mark.parametrize("first_parent", ["as built", "reversed"])
    def test_stash_order_covers_every_parent_edge(self, first_parent):
        from repro.exec.engine import _stash_order
        from repro.exec.translate import translate

        query = get_query("Q2E")
        catalog = cached_tpch(scale_factor=SCALE, skew=query.skew)
        dag = translate(query.build(catalog, magic=True), ExecutionContext(catalog))
        shared = [op for op in dag.sink.walk() if len(op.parents) > 1]
        assert shared
        if first_parent == "reversed":
            # Parent order is arbitrary: the rule must not lean on it.
            for op in shared:
                op.parents.reverse()
        order = _stash_order(dag.scans)
        position = {op: i for i, op in enumerate(order)}
        assert len(position) > 2
        for op in order:
            for below in op.walk():
                if below is not op and below in position:
                    assert position[below] < position[op]

    def test_q2e_magic_streamed_matches_golden(self):
        observation, pages, selected = _matrix_run("Q2E", "magic", False)
        assert_matches_golden(cell_key("Q2E", "magic"), observation)
        _assert_pages(pages, selected)


class TestMergedArrivalRuns:
    """Streamed sources are all backlogged within the first virtual
    milliseconds, so a drive step takes every source's arrived rows as
    one merged run, ordered by the heap's ``(when, source index)`` key.
    These cells run at the spine's ``exec_mix`` scale, where the runs
    are long; before merged runs a page there held 0.8 rows."""

    MIX_SCALE = 0.005
    TIE_KEY = cell_key(
        "part+partsupp+supplier@0.002", "baseline", "equal-rate",
    )

    @classmethod
    def mix_key(cls, qid, strategy):
        return cell_key("%s@%g" % (qid, cls.MIX_SCALE), strategy)

    @classmethod
    def mix_observation(cls, qid, strategy):
        record, summaries = observed(
            run_workload_query, qid, strategy, scale_factor=cls.MIX_SCALE,
        )
        return observe_result(record, summaries)

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("qid", ("Q1A", "Q2A", "Q3A", "Q4A", "Q5A"))
    def test_exec_mix_scale_equivalence(self, qid, strategy):
        assert_matches_golden(
            self.mix_key(qid, strategy), self.mix_observation(qid, strategy),
        )

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

    @classmethod
    def run_streamed(cls):
        catalog = cached_tpch(scale_factor=0.002)
        ctx = ExecutionContext(catalog)
        # Equal rates from t=0: every step ties across sources, so the
        # source-index tie-break decides the order joins see.
        return execute_plan(
            cls._three_source_plan(catalog), ctx,
            arrival_resolver=lambda node: ArrivalModel.streaming(),
        )

    def test_equal_rate_tie_break_and_exhaustion_cut(self):
        result, summaries = observed(self.run_streamed)
        assert len(result.rows) > 100
        assert_matches_golden(self.TIE_KEY, observe_result(result, summaries))
        n_in = sum(c.tuples_in for c in result.metrics.operators.values())
        # Merged, not one row per page.
        assert result.metrics.pages_pushed * 20 < n_in


class TestRunMemory:
    """A run is capped (``engine.RUN_ROWS``, or one page under a memory
    governor): materialising a whole table's arrival times and pages at
    once would add megabytes to the engine's peak, which the served
    process's RSS would show.  The bound is the query's own logical
    peak state (its golden ``peak_state_bytes``) plus 2 MiB."""

    @staticmethod
    def _peak_bytes(qid, scale=0.005, budget=None):
        import tracemalloc

        from repro.exec.engine import Engine
        from repro.exec.translate import translate

        query = get_query(qid)
        catalog = cached_tpch(scale_factor=scale, skew=query.skew)
        governor = MemoryGovernor(budget) if budget is not None else None
        ctx = ExecutionContext(catalog, governor=governor)
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
        golden = load(ENGINE)[
            TestMergedArrivalRuns.mix_key(qid, "baseline")
        ]
        assert self._peak_bytes(qid) <= golden["peak_state_bytes"] + (2 << 20)

    def test_governed_page_peak_within_two_mib_of_tuple_peak(self):
        # An exec_spill cell: the governed run cap is one buffer-pool
        # page, so the rows in flight stay near one page.
        golden = load(PARTITION)[cell_key("Q2A", "baseline")]
        page_peak = self._peak_bytes("Q2A", scale=0.002, budget=256 * 1024)
        assert page_peak <= golden["peak_state_bytes"] + (2 << 20)


LOCAL_PARTITIONS_KEY = cell_key(
    "partsupp-filter@0.002", "baseline", "streamed", None, 3,
)


def _run_local_partitions():
    from repro.distributed.coordinator import mark_remote_scans
    from repro.distributed.site import Placement

    catalog = cached_tpch(scale_factor=0.002)
    placement = Placement()
    placement.partition_table("partsupp", "ps_partkey", ["s0", "s1", "s2"])
    plan = (
        scan(catalog, "partsupp")
        .filter(col("ps_availqty").le(5000))
        .build()
    )
    mark_remote_scans(plan, placement)
    return execute_plan(
        plan, ExecutionContext(catalog),
        arrival_resolver=lambda node: ArrivalModel.streaming(),
    )


def test_local_partitions_merge_in_arrival_order():
    """Partitions paced by a plain (site-blind) resolver are local
    sources, so one run holds several partitions' rows: ``PMerge``
    must forward them in the run's order (the filter and sink above it
    keep whatever order it emits)."""
    result, summaries = observed(_run_local_partitions)
    assert len(result.rows) > 100
    assert result.metrics.pages_pushed > 0
    assert_matches_golden(
        LOCAL_PARTITIONS_KEY, observe_result(result, summaries),
    )


def golden_cells():
    """``(suite, key, record)`` for every cell this module checks: the
    recorder's input (``python -m tests.goldens.record``)."""
    for qid, strategy, delayed in _matrix():
        yield ENGINE, cell_key(qid, strategy, _arrival(delayed)), (
            lambda q=qid, s=strategy, d=delayed: _matrix_run(q, s, d)[0]
        )
        yield (
            ENGINE, cell_key(qid, strategy, _arrival(delayed), "half-peak"),
            lambda q=qid, s=strategy, d=delayed: _half_peak_observation(
                _governed_runs(q, s, d)[1]
            ),
        )
    for qid, strategy in _immediate_cells():
        yield ENGINE, cell_key(qid, strategy, "immediate"), (
            lambda q=qid, s=strategy: observe_result(
                *_immediate_query_run(q, s)
            )
        )
    for strategy in STRATEGY_NAMES:
        yield ENGINE, cell_key("join_born", strategy, "immediate"), (
            lambda s=strategy: observe_result(*TestJoinBornPages._run(s))
        )
        for qid in ("Q1A", "Q2A", "Q3A", "Q4A", "Q5A"):
            yield (
                ENGINE, TestMergedArrivalRuns.mix_key(qid, strategy),
                lambda q=qid, s=strategy: (
                    TestMergedArrivalRuns.mix_observation(q, s)
                ),
            )
    yield ENGINE, TestMergedArrivalRuns.TIE_KEY, lambda: observe_result(
        *observed(TestMergedArrivalRuns.run_streamed)
    )
    yield ENGINE, TestDistributedSummaryEquivalence.KEY, lambda: (
        TestDistributedSummaryEquivalence.observation()[1]
    )
    yield ENGINE, TestConcurrentComposite.KEY, lambda: (
        TestConcurrentComposite.observation()[1]
    )
    yield ENGINE, TestServiceLayer.KEY, TestServiceLayer.observation
    yield ENGINE, TestBudgetedFeedForward.KEY, (
        TestBudgetedFeedForward.observation
    )
    yield ENGINE, LOCAL_PARTITIONS_KEY, lambda: observe_result(
        *observed(_run_local_partitions)
    )
