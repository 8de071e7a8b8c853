"""Tests for the cross-query AIP-set cache.

The make-or-break property is soundness: a set may only be reused when
it summarises the *untouched* subexpression result.  A set built from
state that the producing query's own filters already pruned is sound
inside that query but may lack values another query needs — the
pristine gate must reject it.
"""

import pytest

from repro.aip.candidates import aip_candidates
from repro.aip.feedforward import FeedForwardStrategy
from repro.aip.manager import CostBasedStrategy
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.engine import Engine, execute_plan
from repro.exec.translate import translate
from repro.expr.expressions import col
from repro.optimizer.predicate_graph import SourcePredicateGraph
from repro.plan.builder import scan
from repro.service.aip_cache import AIPSetCache
from repro.workloads.registry import get_query

from tests.helpers import rows_equal


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


def run_cached(catalog, plan, cache, strategy=None):
    """Execute ``plan`` with the cache harvesting and injecting."""
    ctx, physical, injected = inject_cached(catalog, plan, cache, strategy)
    result = Engine(ctx).run(physical)
    return result, injected, ctx


def inject_cached(catalog, plan, cache, strategy=None):
    """Translate ``plan`` and inject the cache's matching sets into it;
    returns ``(ctx, physical, injected)`` with nothing run yet."""
    ctx = ExecutionContext(catalog, strategy=strategy)
    ctx.aip_publish_hooks.append(cache.recorder(ctx))
    physical = translate(plan, ctx)
    ctx.strategy.attach(ctx, physical)
    if strategy is None:
        # A baseline consumer: the graph and index an AIP strategy's
        # attach would have built.
        graph = SourcePredicateGraph.from_plan(physical.logical_root)
        index = aip_candidates(physical, graph)
        at_scans = True
    else:
        graph, index = strategy.graph, strategy.index
        at_scans = strategy.inject_at_scans
    injected = cache.inject(physical, ctx, graph, index, at_scans)
    return ctx, physical, injected


def part_join(catalog, size):
    return (
        scan(catalog, "part")
        .filter(col("p_size").eq(size))
        .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
        .build()
    )


class TestHarvest:
    def test_pristine_sets_are_cached(self, catalog):
        cache = AIPSetCache()
        plan = get_query("Q2A").build_baseline(catalog)
        run_cached(catalog, plan, cache, FeedForwardStrategy())
        assert len(cache) > 0
        assert cache.stored == len(cache)

    def test_tainted_sets_are_rejected(self, catalog):
        cache = AIPSetCache()
        run_cached(catalog, part_join(catalog, 1), cache,
                   FeedForwardStrategy())
        # The part side completes first and publishes pristine sets; its
        # filters then prune the partsupp side, whose working sets must
        # be rejected as tainted.
        assert cache.rejected_tainted > 0
        # The tainted party's state is the bare partsupp scan; no cache
        # key may claim to summarise it.
        assert not any(
            key.startswith("scan(partsupp") for key in cache._entries
        )

    def test_baseline_run_publishes_nothing(self, catalog):
        cache = AIPSetCache()
        plan = get_query("Q2A").build_baseline(catalog)
        run_cached(catalog, plan, cache)
        assert len(cache) == 0


class TestReuse:
    def test_repeat_query_reuses_and_stays_correct(self, catalog):
        cache = AIPSetCache()
        build = get_query("Q2A").build_baseline
        baseline = execute_plan(build(catalog), ExecutionContext(catalog))

        first, injected_first, ctx_first = run_cached(
            catalog, build(catalog), cache, FeedForwardStrategy(),
        )
        assert not injected_first
        second, injected_second, ctx_second = run_cached(
            catalog, build(catalog), cache, FeedForwardStrategy(),
        )
        assert injected_second
        assert rows_equal(second.rows, baseline.rows)
        assert sum(f.pruned for f in injected_second) > 0
        # Reuse shows up as time saved on the shared clock.
        assert ctx_second.metrics.clock < ctx_first.metrics.clock

    def test_reuse_helps_baseline_consumers_too(self, catalog):
        """Cached sets inject into queries running with no strategy."""
        cache = AIPSetCache()
        build = get_query("Q2A").build_baseline
        run_cached(catalog, build(catalog), cache, FeedForwardStrategy())
        baseline = execute_plan(build(catalog), ExecutionContext(catalog))
        reused, injected, ctx = run_cached(catalog, build(catalog), cache)
        assert injected
        assert rows_equal(reused.rows, baseline.rows)
        assert ctx.metrics.total_pruned > 0

    def test_consumer_without_scan_injection_gets_no_scan_filter(
        self, catalog
    ):
        """Feed-Forward's ``inject_at_scans=False`` holds for cached
        sets too: its own publishes filter no scan, so neither may the
        cache's."""
        from repro.exec.operators.scan import PScan

        cache = AIPSetCache()
        build = get_query("Q2A").build_baseline
        run_cached(catalog, build(catalog), cache, FeedForwardStrategy())
        on_scans = {}
        for at_scans in (True, False):
            _ctx, physical, injected = inject_cached(
                catalog, build(catalog), cache,
                FeedForwardStrategy(inject_at_scans=at_scans),
            )
            assert injected
            scan_filters = [
                f for op in physical.sink.walk() if isinstance(op, PScan)
                for filters in op._filters for f in filters
            ]
            on_scans[at_scans] = [
                f for f in injected if any(f is g for g in scan_filters)
            ]
        assert on_scans[True]
        assert on_scans[False] == []

    def test_injects_only_where_an_intra_query_publish_could(self, catalog):
        """Every filter the cache installs sits on an interested party
        of its class in the consuming strategy's own candidate index,
        never on the party whose state the cached set summarises, and
        at most once per party and class."""
        queries = ("Q1A", "Q2A", "Q3A", "Q4A", "Q5A")
        cache = AIPSetCache()
        for qid in queries:
            run_cached(catalog, get_query(qid).build_baseline(catalog),
                       cache, FeedForwardStrategy())
        hits = []
        lookup = cache.lookup

        def recording_lookup(logical, port, attr):
            found = lookup(logical, port, attr)
            if found is not None:
                hits.append(((logical.node_id, port), attr, found))
            return found

        cache.lookup = recording_lookup
        for make in (FeedForwardStrategy, CostBasedStrategy):
            n_injected = 0
            for qid in queries:
                strategy = make()
                del hits[:]
                ctx, physical, injected = inject_cached(
                    catalog, get_query(qid).build_baseline(catalog), cache,
                    strategy,
                )
                where = {
                    id(f): (op.op_id, port)
                    for op in physical.sink.walk()
                    for port, filters in enumerate(op._filters)
                    for f in filters
                }
                seen = set()
                for f in injected:
                    party = where[id(f)]
                    root = strategy.graph.eq.find(f.attr_name)
                    assert party in strategy.index.interested[root]
                    producers = {
                        producer for producer, attr, found in hits
                        if found.summary is f.summary
                        and strategy.graph.eq.find(attr) == root
                    }
                    assert producers and party not in producers
                    assert (party, root) not in seen
                    seen.add((party, root))
                n_injected += len(injected)
                Engine(ctx).run(physical)
            assert n_injected > 0, make.__name__

    def test_sibling_predicate_does_not_poison(self, catalog):
        """The classic unsound reuse: a partsupp set pruned by p_size=1
        must not filter the p_size=2 query."""
        cache = AIPSetCache()
        run_cached(catalog, part_join(catalog, 1), cache,
                   FeedForwardStrategy())
        solo = execute_plan(
            part_join(catalog, 2), ExecutionContext(catalog)
        )
        reused, _, _ = run_cached(
            catalog, part_join(catalog, 2), cache, FeedForwardStrategy(),
        )
        assert rows_equal(reused.rows, solo.rows)

    def test_full_precision_set_replaces_shrunk_one(self, catalog):
        """A budget-shrunk (bucket-discarding) summary cached first
        must yield to a later full-precision set for the same state."""
        from repro.aip.sets import HASHSET

        cache = AIPSetCache()
        build = get_query("Q2A").build_baseline
        run_cached(
            catalog, build(catalog), cache,
            FeedForwardStrategy(summary_kind=HASHSET, memory_budget=2048),
        )
        shrunk = sum(
            1 for s in cache._entries.values()
            if AIPSetCache._degradation(s)
        )
        run_cached(
            catalog, build(catalog), cache,
            FeedForwardStrategy(summary_kind=HASHSET),
        )
        still_shrunk = sum(
            1 for s in cache._entries.values()
            if AIPSetCache._degradation(s)
        )
        # Replacement never increases degradation; if the first run
        # shrank anything that the second republished, it improved.
        assert still_shrunk <= shrunk

    def test_eviction_bounds_entries(self, catalog):
        cache = AIPSetCache(max_entries=2)
        plan = get_query("Q2A").build_baseline(catalog)
        run_cached(catalog, plan, cache, FeedForwardStrategy())
        assert len(cache) <= 2

    def test_stats_shape(self, catalog):
        cache = AIPSetCache()
        stats = cache.stats()
        for key in ("entries", "bytes", "hits", "misses", "stored",
                    "rejected_tainted", "filters_injected"):
            assert key in stats
