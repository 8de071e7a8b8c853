"""End-to-end tests for the query service."""

import contextlib

import pytest

from repro.client import Client
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.net.server import ReproServer
from repro.obs.registry import RATIO_BUCKETS
from repro.service import QueryService, WorkloadItem, parse_workload
from repro.service.query import Request
from repro.service.service import CACHED, OK, SHED_STATUS
from repro.service.workload import parse_inline
from repro.workloads.registry import get_query

from tests.helpers import rows_equal


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


def solo_rows(catalog, qid):
    plan = get_query(qid).build_baseline(catalog)
    return execute_plan(plan, ExecutionContext(catalog)).rows


@contextlib.contextmanager
def in_service(catalog):
    """``serve(text)`` straight on one default service."""
    with QueryService(catalog) as service:
        def serve(text):
            service.submit(text)
            assert service.run().outcomes[0].status in (OK, CACHED)

        yield serve


@contextlib.contextmanager
def over_loopback(catalog):
    """``serve(text)`` through a socket client of a server in this
    process, so the trace covers handler, dispatcher and writer too."""
    with ReproServer(QueryService(catalog)).start() as server, \
            Client(port=server.port) as client:
        yield lambda text: client.query(text).require()


def retained_bytes_per_query(catalog, text_of, warmup, rounds,
                             door=in_service):
    """Traced bytes one default service keeps per further query, after
    ``warmup`` queries have filled its bounded caches and rings; query
    ``i`` (from 1) is ``text_of(i)``, served through ``door``."""
    import gc
    import tracemalloc

    with door(catalog) as serve:
        tracemalloc.start()
        try:
            for i in range(1, warmup + 1):
                serve(text_of(i))
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for i in range(warmup + 1, warmup + rounds + 1):
                serve(text_of(i))
            gc.collect()
            return (tracemalloc.get_traced_memory()[0] - before) / rounds
        finally:
            tracemalloc.stop()


class TestWorkloadParsing:
    def test_script_grammar(self):
        items = parse_workload(
            "# mixed stream\n"
            "Q1A\n"
            "Q2A *2\n"
            "@0.5 Q3A !costbased\n"
            "@1.0 select count(*) as n from part\n"
        )
        assert [i.label for i in items[:4]] == ["Q1A", "Q2A", "Q2A", "Q3A"]
        assert items[3].arrival == 0.5
        assert items[3].strategy == "costbased"
        assert items[4].kind == "sql"
        assert items[4].arrival == 1.0

    def test_inline_ids(self):
        items = parse_inline("Q1A,Q2A*2")
        assert [i.text for i in items] == ["Q1A", "Q2A", "Q2A"]

    def test_inline_sql_passthrough(self):
        items = parse_inline("select count(*) as n from part")
        assert len(items) == 1
        assert items[0].kind == "sql"


class TestServiceBasics:
    def test_mixed_stream_matches_solo_runs(self, catalog):
        service = QueryService(catalog, strategy="feedforward")
        qids = ["Q1A", "Q3A", "Q2A"]
        report = service.run_workload(
            [WorkloadItem("qid", q) for q in qids]
        )
        assert len(report.completed) == 3
        for qid, outcome in zip(qids, report.outcomes):
            assert outcome.status == OK
            assert rows_equal(outcome.result.rows, solo_rows(catalog, qid))

    def test_sql_front_door(self, catalog):
        service = QueryService(catalog)
        result = service.execute("select count(*) as n from part")
        assert len(result) == 1

    def test_latency_accounting(self, catalog):
        service = QueryService(catalog, max_concurrent=1, aip_cache=False,
                               result_cache=False)
        service.submit("Q1A")
        service.submit("Q3A")
        report = service.run()
        first, second = report.outcomes
        assert first.queue_wait == 0.0
        # Sequential batches: the second query waits for the first.
        assert second.queue_wait == pytest.approx(first.finish)
        assert second.latency == pytest.approx(
            second.queue_wait + (second.finish - second.start)
        )
        assert report.total_virtual_seconds == pytest.approx(second.finish)

    def test_arrival_times_respected(self, catalog):
        service = QueryService(catalog, aip_cache=False, result_cache=False)
        service.submit("Q1A", arrival=0.75)
        report = service.run()
        outcome = report.outcomes[0]
        assert outcome.start >= 0.75
        assert outcome.queue_wait == pytest.approx(0.0)

    def test_result_cache_hit(self, catalog):
        service = QueryService(catalog, aip_cache=False)
        service.submit("Q1A")
        service.submit("Q1A")
        report = service.run()
        statuses = sorted(o.status for o in report.outcomes)
        assert statuses == [CACHED, OK]
        hit = next(o for o in report.outcomes if o.status == CACHED)
        assert rows_equal(hit.result.rows, solo_rows(catalog, "Q1A"))
        assert report.result_cache_stats["hits"] == 1

    def test_cached_results_immune_to_caller_mutation(self, catalog):
        """A caller sorting or clearing its rows must not corrupt the
        cache, and two hits must not share one list."""
        service = QueryService(catalog, aip_cache=False)
        first = service.execute("Q1A")
        expected = list(first.rows)
        first.rows.clear()
        second = service.execute("Q1A")
        assert rows_equal(second.rows, expected)
        third = service.execute("Q1A")
        second.rows.clear()
        assert rows_equal(third.rows, expected)

    def test_all_cached_run_has_finite_throughput(self, catalog):
        service = QueryService(catalog, aip_cache=False)
        service.submit("Q1A")
        service.run()
        service.submit("Q1A")
        service.submit("Q1A")
        report = service.run()
        assert all(o.status == CACHED for o in report.outcomes)
        assert report.total_virtual_seconds > 0
        assert report.queries_per_second > 0

    def test_shedding_oversized_query(self, catalog):
        service = QueryService(catalog, memory_budget_bytes=16.0)
        service.submit("Q2A")
        report = service.run()
        assert report.outcomes[0].status == SHED_STATUS
        assert report.outcomes[0].result is None
        assert len(report.shed) == 1

    def test_budget_serialises_batches(self, catalog):
        unbounded = QueryService(catalog, aip_cache=False,
                                 result_cache=False)
        for q in ("Q1A", "Q3A"):
            unbounded.submit(q)
        unbounded.run()
        assert unbounded.batches_run == 1

        from repro.optimizer.cost import PlanCoster
        from repro.service.admission import estimate_query_state_bytes
        coster = PlanCoster(catalog)
        estimates = [
            estimate_query_state_bytes(
                get_query(q).build_baseline(catalog), coster
            )
            for q in ("Q1A", "Q3A")
        ]
        # Each query fits alone but the pair exceeds the budget, so the
        # batches must serialise.
        budget = max(estimates) * 1.01
        assert budget < sum(estimates)
        tight = QueryService(
            catalog, aip_cache=False, result_cache=False,
            memory_budget_bytes=budget,
        )
        for q in ("Q1A", "Q3A"):
            tight.submit(q)
        report = tight.run()
        assert tight.batches_run == 2
        assert len(report.completed) == 2

    def test_sjf_reorders_cheap_first(self, catalog):
        service = QueryService(
            catalog, scheduler="sjf", max_concurrent=1,
            aip_cache=False, result_cache=False,
        )
        heavy = service.submit("Q2A")
        light = service.submit("select p_partkey from part where p_size = 1")
        report = service.run()
        by_seq = {o.seq: o for o in report.outcomes}
        assert by_seq[light].start < by_seq[heavy].start

    def test_tenant_burst_cannot_starve_another_tenant(self, catalog):
        """Fair interleaving is scheduling policy, not a property of
        the execution backend: on the default serial service, tenant
        ``a``'s burst of three must not push tenant ``b``'s single
        query out of the first two-slot batch."""
        service = QueryService(
            catalog, strategy="baseline", max_concurrent=2,
            aip_cache=False, result_cache=False,
        )
        for _ in range(3):
            service.submit("Q1A", tenant="a")
        lone = service.submit("Q4A", tenant="b")
        report = service.run()
        by_seq = {o.seq: o for o in report.outcomes}
        assert by_seq[lone].batch == 0
        assert sorted(o.batch for o in report.outcomes) == [0, 0, 1, 1]

    @pytest.mark.parametrize(
        "strategy", ["baseline", "feedforward", "costbased"]
    )
    def test_twins_are_held_only_for_the_result_cache(self, catalog,
                                                      strategy):
        """Without the result cache, identical twins leave nothing
        behind and pack into one batch, whatever their strategy.  With
        it, the twin is held one round and served the first one's
        cached result."""
        packed = QueryService(catalog, strategy=strategy,
                              result_cache=False)
        held = QueryService(catalog, strategy=strategy)
        for service in (packed, held):
            for _ in range(2):
                service.submit("Q1A")
        report = packed.run()
        assert [(o.status, o.batch) for o in report.outcomes] == [
            (OK, 0), (OK, 0),
        ]
        report = held.run()
        assert [(o.status, o.batch) for o in report.outcomes] == [
            (OK, 0), (CACHED, -1),
        ]
        assert packed.batches_run == held.batches_run == 1
        first, twin = report.outcomes
        assert twin.start >= first.finish
        assert rows_equal(twin.result.rows, solo_rows(catalog, "Q1A"))

    def test_aip_cache_option_changes_nothing(self, catalog):
        """``aip_cache`` is accepted and ignored: AIP sets never
        outlive their query, so a repeated Feed-Forward stream reports
        the same rows, finish times and clock with it on or off."""
        def replay(aip_cache):
            service = QueryService(catalog, strategy="feedforward",
                                   result_cache=False, aip_cache=aip_cache)
            for i in range(3):
                service.submit("Q2A", arrival=0.01 * i)
            report = service.run()
            return (
                [(o.status, o.finish, o.result.rows)
                 for o in report.outcomes],
                service.clock, report.render(),
            )

        assert replay(True) == replay(False)

    def test_reused_service_reports_per_run(self, catalog):
        """A second run on the same service must report its own window,
        not the service's cumulative clock."""
        service = QueryService(catalog, aip_cache=False, result_cache=False)
        service.submit("Q1A")
        first = service.run()
        service.submit("Q1A")
        second = service.run()
        assert second.total_virtual_seconds == pytest.approx(
            first.total_virtual_seconds, rel=0.01
        )
        assert second.queries_per_second == pytest.approx(
            first.queries_per_second, rel=0.01
        )
        # Arrivals date from the current clock, so latency is not
        # inflated by the first run.
        assert second.outcomes[0].latency == pytest.approx(
            first.outcomes[0].latency, rel=0.01
        )
        assert second.outcomes[0].queue_wait == pytest.approx(0.0)

    def test_reused_service_scopes_cache_stats_per_run(self, catalog):
        service = QueryService(catalog, aip_cache=False)
        service.submit("Q1A")
        service.run()
        service.submit("Q1A")
        report = service.run()
        # Run 2 is a single cache hit; run 1's miss must not leak in.
        assert report.result_cache_stats["hits"] == 1
        assert report.result_cache_stats["misses"] == 0
        assert report.summary()["result_cache_hit_rate"] == pytest.approx(1.0)

    def test_report_render_mentions_everything(self, catalog):
        service = QueryService(catalog)
        service.submit("Q1A")
        report = service.run()
        text = report.render()
        for needle in ("wait (vs)", "latency", "peak aggregate state",
                       "result cache"):
            assert needle in text

    def test_bad_strategy_rejected_at_submit(self, catalog):
        """An invalid strategy must fail fast, not leak admission slots
        mid-batch and wedge the service."""
        service = QueryService(catalog)
        with pytest.raises(ValueError):
            service.submit("Q1A", strategy="typo")
        # The service stays fully usable afterwards.
        service.submit("Q1A")
        report = service.run()
        assert report.outcomes[0].status == OK
        assert service.admission.in_flight_queries == 0

    def test_magic_without_a_variant_rejected_at_submit(self, catalog):
        """``magic`` on a query with no magic-sets rewrite (Q4A), or on
        SQL text, is refused at submit, as ``run_workload_query``
        refuses it, instead of running the baseline plan recorded as
        ``strategy=magic``."""
        service = QueryService(catalog)
        for text in ("Q4A", "select count(*) as n from part"):
            with pytest.raises(ValueError, match="no magic-sets variant"):
                service.submit(text, strategy="magic")
        service.submit("Q1A", strategy="magic")
        report = service.run()
        assert [o.status for o in report.outcomes] == [OK]
        assert service.admission.in_flight_queries == 0

    def test_published_sets_observe_their_bloom_fill(self, catalog):
        """Every set a Feed-Forward run publishes is counted, and each
        one's Bloom fill fraction lies in [0, 1].  Zero is an empty
        set: Q2A publishes four (six sets, fills 0 and 0.031)."""
        service = QueryService(catalog, strategy="feedforward",
                               result_cache=False)
        service.submit("Q2A")
        assert service.run().outcomes[0].status == OK
        registry = service.registry
        sets = registry.counter("aip.sets_published").value
        fills = registry.histogram("aip.bloom_fill_fraction", RATIO_BUCKETS)
        assert sets > 0
        assert fills.count == sets
        assert 0 <= fills.vmin < fills.vmax <= 1

    def test_peak_state_tracked(self, catalog):
        service = QueryService(catalog)
        service.submit("Q2A")
        report = service.run()
        assert report.peak_state_bytes > 0
        assert report.summary()["peak_state_mb"] > 0

    def test_serving_a_cached_query_does_not_grow_the_service(self, catalog):
        # The service-lifetime coster's estimate cache used to gain an
        # entry per plan node per submit (12 KB per Q1A on the parent).
        grown = retained_bytes_per_query(
            catalog, lambda i: "Q1A", warmup=200, rounds=500,
        )
        assert grown < 1024, "%.0f B/query" % grown

    def test_serving_distinct_queries_does_not_grow_the_service(self, catalog):
        # The non-cached path: every statement is new, so each one
        # executes, is profiled and is offered to the result cache.  An
        # unbounded per-fingerprint store once kept ~970 B of each.
        # The warm-up passes every bound: result cache 128 entries,
        # profile ring 128.
        grown = retained_bytes_per_query(
            catalog,
            lambda i: "select count(*) from part where p_partkey < %d" % i,
            warmup=300, rounds=500,
        )
        assert grown < 256, "%.0f B/query" % grown

    def test_serving_over_the_socket_does_not_grow_the_server(self, catalog):
        # The same cached stream through the front door: at ~1,700
        # queries/s a 20 s benchmark window serves ~35,000 of them, so
        # 100 B kept per query would be that benchmark's whole 10%
        # resident-memory bound.
        grown = retained_bytes_per_query(
            catalog, lambda i: "Q1A", warmup=300, rounds=2000,
            door=over_loopback,
        )
        assert grown < 64, "%.0f B/query" % grown


class FaultOnce:
    """A backend whose first batch raises; later ones run on ``inner``."""

    slots = 1

    def __init__(self, inner):
        self.inner = inner
        self.batches = 0

    def execute(self, batch):
        self.batches += 1
        if self.batches == 1:
            raise RuntimeError("engine fault")
        return self.inner.execute(batch)

    def close(self):
        self.inner.close()


class TestRunRequests:
    def test_failed_group_leaves_no_orphans(self, catalog):
        """An engine fault fails the whole request group; the group's
        not-yet-run queries must leave the queue with it instead of
        running, unread, on the next caller's clock."""
        with QueryService(catalog, max_concurrent=1,
                          result_cache=False) as service:
            backend = service._backend = FaultOnce(service._backend)
            group = [Request("Q1A"), Request("Q2A")]
            service.run_requests(group)
            assert [r.error for r in group] == [
                "service batch failed: engine fault"
            ] * 2
            assert len(service._pending) == 0
            assert service.proclist() == []
            assert service.admission.in_flight_queries == 0

            third = Request("Q1A")
            service.run_requests([third])
            assert third.error is None
            assert third.result.status == OK
            assert third.result.seq == third.query.seq
            assert backend.batches == 2  # the faulted one, then one
            assert service.batches_run == 1

    def test_execute_withdraws_its_query_on_a_fault(self, catalog):
        with QueryService(catalog, max_concurrent=1,
                          result_cache=False) as service:
            service._backend = FaultOnce(service._backend)
            service.submit("Q1A")  # runs first and faults the run
            with pytest.raises(RuntimeError, match="engine fault"):
                service.execute("Q2A")
            assert service.proclist() == []
            assert len(service.execute("Q2A")) == len(
                solo_rows(catalog, "Q2A")
            )
