"""Operator-level unit tests: filter registration, short-circuit state
mechanics, state exposure, error paths."""

import pytest

from repro.common.errors import ExecutionError
from repro.data.schema import Schema, INT, STR
from repro.exec.arrival import ArrivalModel
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import InjectedFilter
from repro.exec.operators.distinct import PDistinct
from repro.exec.operators.groupby import PGroupBy
from repro.exec.operators.hashjoin import PHashJoin
from repro.exec.operators.output import POutput
from repro.exec.operators.scan import PScan
from repro.exec.operators.semijoin import PSemiJoin
from repro.exec.pages import ColumnBatch
from repro.expr.aggregates import MIN, SUM, AggregateSpec
from repro.expr.expressions import col
from repro.summaries.hashset import HashSetSummary


LEFT = Schema.of(("a", INT), ("a_name", STR))
RIGHT = Schema.of(("b", INT), ("b_name", STR))


@pytest.fixture()
def ctx():
    from repro.data.catalog import Catalog
    return ExecutionContext(Catalog())


def push_rows(op, rows, port=0, seq=None):
    """Push ``rows`` into ``op``'s ``port`` as one page — the only way
    rows enter an operator."""
    op.push_page(
        ColumnBatch.from_rows(list(rows), len(op.input_schemas[port]), seq),
        port,
    )


def join_with_sink(ctx, **kwargs):
    join = PHashJoin(ctx, 1, LEFT, RIGHT, ["a"], ["b"], **kwargs)
    sink = POutput(ctx, 2, join.out_schema)
    sink.connect_child(join, 0)
    return join, sink


class TestHashJoinMechanics:
    def test_symmetric_matching(self, ctx):
        join, sink = join_with_sink(ctx)
        push_rows(join, [(1, "l1")], 0)
        push_rows(join, [(1, "r1")], 1)   # matches buffered left row
        push_rows(join, [(1, "l2")], 0)   # matches buffered right row
        assert sorted(sink.rows) == [
            (1, "l1", 1, "r1"), (1, "l2", 1, "r1"),
        ]

    def test_short_circuit_releases_other_side(self, ctx):
        join, sink = join_with_sink(ctx)
        push_rows(join, [(1, "l1")], 0)
        push_rows(join, [(2, "r1")], 1)
        before = ctx.metrics.total_state_bytes
        join.finish(0)  # left done -> right side stops buffering
        assert ctx.metrics.total_state_bytes < before
        push_rows(join, [(3, "r2")], 1)     # arrives after short-circuit
        assert join.stored_count(1) == 0
        assert join.state_complete(0)
        assert not join.state_complete(1)

    def test_short_circuit_disabled(self):
        from repro.data.catalog import Catalog
        ctx = ExecutionContext(Catalog(), short_circuit=False)
        join, sink = join_with_sink(ctx)
        push_rows(join, [(1, "l1")], 0)
        join.finish(0)
        push_rows(join, [(2, "r1")], 1)
        assert join.stored_count(1) == 1

    def test_finish_twice_rejected(self, ctx):
        join, _ = join_with_sink(ctx)
        join.finish(0)
        with pytest.raises(ExecutionError):
            join.finish(0)

    def test_state_values(self, ctx):
        join, _ = join_with_sink(ctx)
        push_rows(join, [(1, "x")], 0)
        push_rows(join, [(2, "y")], 0)
        assert sorted(join.state_values(0, "a")) == [1, 2]
        assert sorted(join.state_values(0, "a_name")) == ["x", "y"]

    def test_residual(self, ctx):
        join = PHashJoin(
            ctx, 10, LEFT, RIGHT, ["a"], ["b"],
            residual=col("a_name").ne(col("b_name")),
        )
        sink = POutput(ctx, 11, join.out_schema)
        sink.connect_child(join, 0)
        push_rows(join, [(1, "same")], 0)
        push_rows(join, [(1, "same")], 1)
        push_rows(join, [(1, "diff")], 1)
        assert sink.rows == [(1, "same", 1, "diff")]


class TestInjectedFilters:
    def test_filter_prunes_before_processing(self, ctx):
        join, sink = join_with_sink(ctx)
        keep = HashSetSummary.from_values([1])
        join.register_filter(0, "a", keep, label="test")
        push_rows(join, [(1, "kept")], 0)
        push_rows(join, [(2, "pruned")], 0)
        assert join.stored_count(0) == 1
        assert ctx.metrics.counters(join.op_id).tuples_pruned == 1

    def test_filter_replacement(self, ctx):
        join, _ = join_with_sink(ctx)
        old = join.register_filter(0, "a", HashSetSummary.from_values([1, 2]))
        new = InjectedFilter(
            old.key_index, "a", HashSetSummary.from_values([1]), "tighter"
        )
        join.replace_filter(0, old, new)
        push_rows(join, [(2, "now pruned")], 0)
        assert join.stored_count(0) == 0

    def test_bad_port_rejected(self, ctx):
        join, _ = join_with_sink(ctx)
        with pytest.raises(ExecutionError):
            join.connect_child(POutput(ctx, 99, LEFT), 5)


class TestGroupByMechanics:
    def _groupby(self, ctx):
        gb = PGroupBy(
            ctx, 20, LEFT,
            Schema.of(("a", INT), ("total", INT), ("smallest", STR)),
            ["a"],
            [
                AggregateSpec(SUM, col("a"), "total"),
                AggregateSpec(MIN, col("a_name"), "smallest"),
            ],
        )
        sink = POutput(ctx, 21, gb.out_schema)
        sink.connect_child(gb, 0)
        return gb, sink

    def test_grouping_and_flush(self, ctx):
        gb, sink = self._groupby(ctx)
        push_rows(gb, [(1, "b")], 0)
        push_rows(gb, [(1, "a")], 0)
        push_rows(gb, [(2, "z")], 0)
        assert not sink.rows  # blocking
        gb.finish(0)
        assert sorted(sink.rows) == [(1, 2, "a"), (2, 2, "z")]

    def test_state_values_keys_and_aggregates(self, ctx):
        gb, _ = self._groupby(ctx)
        push_rows(gb, [(1, "b")], 0)
        push_rows(gb, [(2, "a")], 0)
        assert sorted(gb.state_values(0, "a")) == [1, 2]
        assert sorted(gb.state_values(0, "smallest")) == ["a", "b"]

    def test_state_released_after_flush(self, ctx):
        gb, _ = self._groupby(ctx)
        push_rows(gb, [(1, "b")], 0)
        gb.finish(0)
        assert ctx.metrics.state_bytes_of(gb.op_id) == 0


class TestDistinctMechanics:
    def test_pipelined_dedup(self, ctx):
        d = PDistinct(ctx, 30, LEFT)
        sink = POutput(ctx, 31, LEFT)
        sink.connect_child(d, 0)
        push_rows(d, [(1, "x")], 0)
        push_rows(d, [(1, "x")], 0)
        push_rows(d, [(2, "y")], 0)
        assert sink.rows == [(1, "x"), (2, "y")]  # emitted immediately
        assert d.stored_count(0) == 2

    def test_state_values(self, ctx):
        d = PDistinct(ctx, 32, LEFT)
        sink = POutput(ctx, 33, LEFT)
        sink.connect_child(d, 0)
        push_rows(d, [(1, "x")], 0)
        assert list(d.state_values(0, "a_name")) == ["x"]


class TestSemiJoinMechanics:
    def _semijoin(self, ctx):
        sj = PSemiJoin(ctx, 40, LEFT, RIGHT, ["a"], ["b"])
        sink = POutput(ctx, 41, LEFT)
        sink.connect_child(sj, 0)
        return sj, sink

    def test_pending_flush_on_source_arrival(self, ctx):
        sj, sink = self._semijoin(ctx)
        push_rows(sj, [(1, "waiting")], 0)
        assert not sink.rows
        push_rows(sj, [(1, "src")], 1)
        assert sink.rows == [(1, "waiting")]

    def test_duplicate_source_keys_no_duplicates(self, ctx):
        sj, sink = self._semijoin(ctx)
        push_rows(sj, [(1, "src")], 1)
        push_rows(sj, [(1, "src2")], 1)
        push_rows(sj, [(1, "probe")], 0)
        assert sink.rows == [(1, "probe")]

    def test_probe_after_source_done_not_buffered(self, ctx):
        sj, sink = self._semijoin(ctx)
        push_rows(sj, [(1, "src")], 1)
        sj.finish(1)
        push_rows(sj, [(2, "never")], 0)
        assert sj.stored_count(0) == 0
        assert not sink.rows

    def test_state_complete_semantics(self, ctx):
        sj, _ = self._semijoin(ctx)
        push_rows(sj, [(1, "probe")], 0)
        assert not sj.state_complete(0)
        assert not sj.state_complete(1)
        sj.finish(1)
        assert sj.state_complete(1)


class TestFilterCostAccounting:
    """Regression: rows pruned by an injected AIP filter must not be
    billed for a predicate they never evaluate (the old code charged
    ``predicate_eval`` up front, understating AIP's CPU savings)."""

    def _filter(self, ctx):
        from repro.exec.operators.filter import PFilter
        f = PFilter(ctx, 60, LEFT, col("a").gt(0))
        sink = POutput(ctx, 61, LEFT)
        sink.connect_child(f, 0)
        return f, sink

    def test_pruned_row_skips_predicate_charge(self, ctx):
        cm = ctx.cost_model
        f, _ = self._filter(ctx)
        f.register_filter(0, "a", HashSetSummary.from_values([99]))
        before = ctx.metrics.cpu_time
        push_rows(f, [(1, "pruned")], 0)
        charged = ctx.metrics.cpu_time - before
        # One touch plus one filter probe; no predicate evaluation.
        assert charged == pytest.approx(cm.tuple_base + cm.semijoin_probe)
        assert charged < cm.tuple_base + cm.semijoin_probe + cm.predicate_eval

    def test_surviving_row_still_pays_predicate(self, ctx):
        cm = ctx.cost_model
        f, sink = self._filter(ctx)
        f.register_filter(0, "a", HashSetSummary.from_values([1]))
        before = ctx.metrics.cpu_time
        push_rows(f, [(1, "kept")], 0)
        charged = ctx.metrics.cpu_time - before
        # Filter's own charges plus the sink's touch of the emitted row.
        assert charged == pytest.approx(
            cm.tuple_base + cm.semijoin_probe + cm.predicate_eval
            + cm.tuple_base
        )
        assert sink.rows == [(1, "kept")]

    def test_no_filter_unchanged(self, ctx):
        cm = ctx.cost_model
        f, _ = self._filter(ctx)
        before = ctx.metrics.cpu_time
        push_rows(f, [(1, "x")], 0)
        charged = ctx.metrics.cpu_time - before
        assert charged == pytest.approx(
            cm.tuple_base + cm.predicate_eval + cm.tuple_base
        )

    def test_project_pruned_row_skips_output_build(self, ctx):
        from repro.exec.operators.project import PProject
        from repro.expr.expressions import Col

        cm = ctx.cost_model
        p = PProject(ctx, 62, LEFT, LEFT, [("a", Col("a")), ("a_name", Col("a_name"))])
        sink = POutput(ctx, 63, LEFT)
        sink.connect_child(p, 0)
        p.register_filter(0, "a", HashSetSummary.from_values([99]))
        before = ctx.metrics.cpu_time
        push_rows(p, [(1, "pruned")], 0)
        charged = ctx.metrics.cpu_time - before
        # Touch plus filter probe; no output tuple was built.
        assert charged == pytest.approx(cm.tuple_base + cm.semijoin_probe)

    def test_distinct_pruned_row_skips_hash_probe(self, ctx):
        cm = ctx.cost_model
        d = PDistinct(ctx, 64, LEFT)
        sink = POutput(ctx, 65, LEFT)
        sink.connect_child(d, 0)
        d.register_filter(0, "a", HashSetSummary.from_values([99]))
        before = ctx.metrics.cpu_time
        push_rows(d, [(1, "pruned")], 0)
        charged = ctx.metrics.cpu_time - before
        # Touch plus filter probe; the seen-set was never probed.
        assert charged == pytest.approx(cm.tuple_base + cm.semijoin_probe)


class TestPushPageMatchesPush:
    """Operator-level cross-check: a kernel fed a whole page must
    reproduce the rows, charges and state of the same kernel fed the
    same rows pushed one at a time (one single-row page each) — the
    paper's per-row semantics, whatever the page size."""

    def _fresh_ctx(self):
        from repro.data.catalog import Catalog
        return ExecutionContext(Catalog())

    def _compare(self, build, feed):
        """``build(ctx) -> (op, sink)``; ``feed`` maps port->rows."""
        ctx_a, ctx_b = self._fresh_ctx(), self._fresh_ctx()
        op_a, sink_a = build(ctx_a)
        op_b, sink_b = build(ctx_b)
        for port, rows in feed:
            for row in rows:
                push_rows(op_a, [row], port)
            push_rows(op_b, rows, port)
        assert sink_b.rows == sink_a.rows
        assert ctx_b.metrics.clock == ctx_a.metrics.clock
        assert (
            ctx_b.metrics.peak_state_bytes == ctx_a.metrics.peak_state_bytes
        )
        assert (
            ctx_b.metrics.total_state_bytes == ctx_a.metrics.total_state_bytes
        )
        ca = ctx_a.metrics.counters(op_a.op_id)
        cb = ctx_b.metrics.counters(op_b.op_id)
        assert (cb.tuples_in, cb.tuples_out, cb.tuples_pruned) == (
            ca.tuples_in, ca.tuples_out, ca.tuples_pruned
        )

    def test_hash_join_page(self):
        def build(ctx):
            return join_with_sink(ctx)

        self._compare(build, [
            (0, [(1, "l1"), (2, "l2"), (1, "l3")]),
            (1, [(1, "r1"), (3, "r2"), (1, "r3")]),
            (0, [(1, "l4"), (3, "l5")]),
        ])

    def test_hash_join_flushes_ports_in_seq_order(self):
        """Pages carrying ``seq`` wait in the join's stash; the flush
        probes and inserts across both ports in ``seq`` order, exactly
        the rows pushed one at a time in that order."""
        left = [(1, "l1"), (2, "l2"), (1, "l3")]
        right = [(1, "r1"), (2, "r2"), (1, "r3")]
        left_seq, right_seq = [0, 3, 4], [1, 2, 5]
        ctx_a, ctx_b = self._fresh_ctx(), self._fresh_ctx()
        join_a, sink_a = join_with_sink(ctx_a)
        join_b, sink_b = join_with_sink(ctx_b)
        arrivals = sorted(
            [(s, 0, row) for s, row in zip(left_seq, left)]
            + [(s, 1, row) for s, row in zip(right_seq, right)]
        )
        for _, port, row in arrivals:
            push_rows(join_a, [row], port)
        push_rows(join_b, right, 1, right_seq)
        push_rows(join_b, left, 0, left_seq)
        assert sink_b.rows == []  # stashed until the run's flush
        join_b.flush_stash()
        assert sink_b.rows == sink_a.rows
        assert len(sink_a.rows) == 5
        assert ctx_b.metrics.clock == ctx_a.metrics.clock
        assert (
            ctx_b.metrics.peak_state_bytes == ctx_a.metrics.peak_state_bytes
        )

    def _semijoin_with_sink(self, ctx, probe_schema=LEFT):
        sj = PSemiJoin(ctx, 40, probe_schema, RIGHT, ["a"], ["b"])
        sink = POutput(ctx, 41, probe_schema)
        sink.connect_child(sj, 0)
        return sj, sink

    def test_semijoin_flushes_ports_in_seq_order(self):
        """The semijoin stashes ``seq`` pages like the join; the flush
        buffers, emits and releases across both ports in ``seq`` order:
        rows, clock and peak equal the same rows pushed one at a time
        in that order.  The strategy hook sees each port's accepted rows
        as one page, so its rows match port by port."""
        from repro.exec.context import ExecutionStrategy

        class Recorder(ExecutionStrategy):
            def __init__(self):
                self.rows = []

            def after_tuples_page(self, op, port, page):
                self.rows.extend((port, row) for row in page.rows())

        probe = [(1, "w1"), (2, "w2"), (1, "w3"), (3, "hit"), (4, "miss")]
        source = [(1, "s1"), (3, "s3"), (1, "dup")]
        probe_seq, source_seq = [0, 1, 3, 6, 7], [2, 4, 5]

        def run(driver):
            ctx = self._fresh_ctx()
            recorder = ctx.strategy = Recorder()
            sj, sink = self._semijoin_with_sink(ctx)
            driver(sj)
            return ctx, sink.rows, recorder.rows

        arrivals = sorted(
            [(s, 0, row) for s, row in zip(probe_seq, probe)]
            + [(s, 1, row) for s, row in zip(source_seq, source)]
        )

        def merged(sj):
            push_rows(sj, source, 1, source_seq)
            push_rows(sj, probe, 0, probe_seq)
            assert sj.stored_count(0) == 0  # stashed until the flush
            sj.flush_stash()

        ctx_a, rows_a, hook_a = run(
            lambda sj: [push_rows(sj, [row], port) for _, port, row in arrivals]
        )
        ctx_b, rows_b, hook_b = run(merged)
        assert rows_b == rows_a
        assert rows_a == [(1, "w1"), (1, "w3"), (3, "hit")]
        for port in (0, 1):
            assert [r for r in hook_b if r[0] == port] == [
                r for r in hook_a if r[0] == port
            ]
        assert ctx_b.metrics.clock == ctx_a.metrics.clock
        assert (
            ctx_b.metrics.peak_state_bytes == ctx_a.metrics.peak_state_bytes
        )
        assert (
            ctx_b.metrics.total_state_bytes == ctx_a.metrics.total_state_bytes
        )

    def test_merged_run_peak_under_a_semijoin_release(self):
        """semijoin(probe = join(A, B), source = C): a C row at seq 0
        releases the buffered probe rows, then A rows at seq 1.. go into
        the join.  The deepest-first flush runs the join's inserts
        before the release, so the merged run's peak reads those inserts
        on top of the still-buffered rows; in arrival order the release
        came first.  Rows, clock and end state are equal, and the peaks
        differ by no more than the bytes released (DESIGN.md section 4,
        rule 2)."""
        c_schema = RIGHT
        late_a = [(8, "a%d" % i) for i in range(3)]

        def run(merged):
            ctx = self._fresh_ctx()
            join = PHashJoin(ctx, 1, LEFT, RIGHT, ["a"], ["b"])
            sj = PSemiJoin(ctx, 40, join.out_schema, c_schema, ["a"], ["b"])
            sink = POutput(ctx, 41, join.out_schema)
            sj.connect_child(join, 0)
            sink.connect_child(sj, 0)
            # Before the run: four joined rows wait in the probe buffer.
            push_rows(join, [(7, "b")], 1)
            push_rows(join, [(7, "a%d" % i) for i in range(4)], 0)
            released = sj.stored_count(0) * sj._probe_row_bytes
            if merged:
                push_rows(sj, [(7, "c")], 1, [0])
                push_rows(join, late_a, 0, [1, 2, 3])
                join.flush_stash()
                sj.flush_stash()
            else:
                push_rows(sj, [(7, "c")], 1)
                for row in late_a:
                    push_rows(join, [row], 0)
            return ctx.metrics, sink.rows, released

        arrival, rows_a, released = run(merged=False)
        flushed, rows_b, _ = run(merged=True)
        assert rows_b == rows_a and len(rows_a) == 4
        assert flushed.clock == arrival.clock
        assert flushed.total_state_bytes == arrival.total_state_bytes
        lift = flushed.peak_state_bytes - arrival.peak_state_bytes
        assert 0 < lift <= released

    def test_hash_join_page_with_residual(self):
        def build(ctx):
            join = PHashJoin(
                ctx, 1, LEFT, RIGHT, ["a"], ["b"],
                residual=col("a_name").ne(col("b_name")),
            )
            sink = POutput(ctx, 2, join.out_schema)
            sink.connect_child(join, 0)
            return join, sink

        self._compare(build, [
            (0, [(1, "same"), (1, "diff")]),
            (1, [(1, "same"), (1, "other")]),
        ])

    def test_semijoin_page(self):
        def build(ctx):
            sj = PSemiJoin(ctx, 40, LEFT, RIGHT, ["a"], ["b"])
            sink = POutput(ctx, 41, LEFT)
            sink.connect_child(sj, 0)
            return sj, sink

        self._compare(build, [
            (0, [(1, "w1"), (2, "w2"), (1, "w3")]),
            (1, [(1, "s1"), (1, "dup"), (3, "s2")]),
            (0, [(1, "hit"), (4, "miss")]),
        ])

    def test_groupby_page(self):
        def build(ctx):
            gb = PGroupBy(
                ctx, 20, LEFT,
                Schema.of(("a", INT), ("total", INT)),
                ["a"], [AggregateSpec(SUM, col("a"), "total")],
            )
            sink = POutput(ctx, 21, gb.out_schema)
            sink.connect_child(gb, 0)
            return gb, sink

        self._compare(build, [
            (0, [(1, "x"), (1, "y"), (2, "z"), (1, "w")]),
        ])

    def test_distinct_page(self):
        def build(ctx):
            d = PDistinct(ctx, 30, LEFT)
            sink = POutput(ctx, 31, LEFT)
            sink.connect_child(d, 0)
            return d, sink

        self._compare(build, [
            (0, [(1, "x"), (1, "x"), (2, "y"), (1, "x"), (3, "z")]),
        ])

    def test_page_vets_injected_filters(self):
        def build(ctx):
            join, sink = join_with_sink(ctx)
            join.register_filter(0, "a", HashSetSummary.from_values([1, 3]))
            join.register_filter(0, "a", HashSetSummary.from_values([1]))
            return join, sink

        self._compare(build, [
            (0, [(1, "kept"), (2, "cut-first"), (3, "cut-second")]),
            (1, [(1, "r")]),
        ])

    def test_semijoin_page_hook_skips_duplicate_source_keys(self):
        # A duplicate source key carries no new information: the
        # strategy hook never sees it, in a single-row page or a
        # multi-row one.
        from repro.exec.context import ExecutionStrategy

        class Recorder(ExecutionStrategy):
            def __init__(self):
                self.rows = []

            def after_tuples_page(self, op, port, page):
                self.rows.extend((port, row) for row in page.rows())

        def run(driver):
            ctx = self._fresh_ctx()
            recorder = ctx.strategy = Recorder()
            sj = PSemiJoin(ctx, 40, LEFT, RIGHT, ["a"], ["b"])
            sink = POutput(ctx, 41, LEFT)
            sink.connect_child(sj, 0)
            driver(sj)
            return recorder.rows

        source_rows = [(1, "s1"), (1, "dup"), (2, "s2")]
        row_seen = run(
            lambda sj: [push_rows(sj, [r], 1) for r in source_rows]
        )
        page_seen = run(lambda sj: push_rows(sj, source_rows, 1))
        assert page_seen == row_seen
        assert len(row_seen) == 2  # the duplicate never reaches the hook


class TestScanMechanics:
    def test_scan_rejects_push(self, ctx):
        # Not a bare assert: must survive ``python -O``.
        s = PScan(ctx, 50, LEFT, [(1, "x")])
        with pytest.raises(ExecutionError):
            s.push_page(ColumnBatch.from_rows([(1, "x")], 2), 0)

    def test_emit_without_pending_raises_execution_error(self, ctx):
        # Not a bare assert: must survive ``python -O`` — a silent pass
        # here would turn a driver bug into row loss.
        s = PScan(ctx, 56, LEFT, [(1, "x")])
        with pytest.raises(ExecutionError):
            s.take_paced(0, None, False, 8)
        with pytest.raises(ExecutionError):
            s.run_times(8)

    def test_take_local_drains_immediate_rows(self, ctx):
        s = PScan(ctx, 57, LEFT, [(1, "a"), (2, "b"), (3, "c")])
        sink = POutput(ctx, 58, LEFT)
        sink.connect_child(s, 0)
        when = s.prime()
        ctx.metrics.wait_until(when)
        times = s.run_times(16)
        assert times == [0.0, 0.0, 0.0]  # immediate arrivals
        s.push_run(s.take_local(len(times), times), None)
        assert s.exhausted and s.pending_when is None
        assert sink.rows == [(1, "a"), (2, "b"), (3, "c")]

    def test_take_local_leaves_the_next_row_pending(self, ctx):
        rows = [(i, "r%d" % i) for i in range(5)]
        streamed = PScan(ctx, 61, LEFT, rows, ArrivalModel.streaming(0.25))
        reference = ArrivalModel.streaming(0.25)
        streamed.prime()
        times = streamed.run_times(16)
        # The vector is the running sum per-row ``next_arrival`` makes.
        assert times == [reference.next_arrival(rows, i)[1] for i in range(5)]
        assert streamed.take_local(2, times) == rows[:2]
        assert streamed.pending_when == times[2]
        assert not streamed.exhausted
        # The next run starts at the pending row, on the same clock.
        assert streamed.run_times(16) == times[2:]

    def test_take_paced_respects_boundary(self, ctx):
        s = PScan(ctx, 59, LEFT, [(1, "a"), (2, "b"), (3, "c")])
        sink = POutput(ctx, 60, LEFT)
        sink.connect_child(s, 0)
        when = s.prime()
        ctx.metrics.wait_until(when)
        # A competing event at time zero that wins the heap tie stops
        # the run after the already-pending row.
        rows = s.take_paced(
            ctx.metrics.clock_ticks, 0.0, True, 8
        )
        assert rows == [(1, "a")]
        assert s.pending_when == 0.0

    def test_scan_engine_side_filter(self, ctx):
        s = PScan(ctx, 51, LEFT, [(1, "x"), (2, "y")])
        sink = POutput(ctx, 52, LEFT)
        sink.connect_child(s, 0)
        s.register_filter(0, "a", HashSetSummary.from_values([2]))
        s.prime()
        times = s.run_times(16)
        s.push_run(s.take_local(len(times), times), None)
        assert s.exhausted
        assert sink.rows == [(2, "y")]
        assert ctx.metrics.counters(s.op_id).tuples_pruned == 1

    def test_multi_parent_emit(self, ctx):
        s = PScan(ctx, 53, LEFT, [(1, "x")])
        sinks = [POutput(ctx, 54, LEFT), POutput(ctx, 55, LEFT)]
        for sink in sinks:
            sink.connect_child(s, 0)
        s.prime()
        s.push_run(s.take_local(1, s.run_times(1)), None)
        assert all(sink.rows == [(1, "x")] for sink in sinks)
