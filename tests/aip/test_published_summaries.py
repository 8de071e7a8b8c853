"""Published AIP summaries are frozen, and filters memoise verdicts.

An injected filter remembers the summary's verdict on every key it has
probed (``InjectedFilter._verdicts``), so a later page hashes only keys
no earlier page carried.  That is only sound if a summary never changes
once it filters anything: the registry freezes every Bloom filter it
publishes, and a publish-time intersection installs a *new* filter,
with an empty memo, in place of the old one.
"""

import pytest

from repro.aip.registry import AIPRegistry
from repro.aip.sets import AIPSet, AIPSetSpec
from repro.data.catalog import Catalog
from repro.data.schema import INT, Schema
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.exec.operators import base
from repro.exec.operators.filter import PFilter
from repro.exec.pages import ColumnBatch
from repro.expr.expressions import col
from repro.harness.strategies import make_strategy
from repro.optimizer.predicate_graph import SourcePredicateGraph
from repro.plan.builder import scan
from repro.summaries.bloom import BloomFilter
from repro.workloads.registry import get_query


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


class TestFrozenBloom:
    def test_writes_raise_reads_work(self):
        bloom = BloomFilter.from_values(range(10))
        bloom.freeze()
        with pytest.raises(ValueError):
            bloom.add(11)
        with pytest.raises(ValueError):
            bloom.add_many([12, 13])
        assert bloom.n_added == 10
        assert all(bloom.might_contain_many(range(10)))

    def test_merges_and_copies_start_writable(self):
        a = BloomFilter(0, seed=1, n_bits=256)
        b = BloomFilter(0, seed=1, n_bits=256)
        a.freeze()
        b.freeze()
        for fresh in (
            a.intersect(b), BloomFilter.from_payload(a.to_payload())
        ):
            assert not fresh.frozen
            fresh.add(1)


class TestRegistryFreezes:
    def test_publish_freezes_the_set_and_the_merge(self, catalog):
        plan = (
            scan(catalog, "part")
            .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
            .build()
        )
        reg = AIPRegistry(SourcePredicateGraph.from_plan(plan))
        spec = AIPSetSpec(reg.root_of("p_partkey"), 100)
        first = AIPSet.from_values("p_partkey", spec, "a", range(20))
        second = AIPSet.from_values("ps_partkey", spec, "b", range(10, 30))
        reg.publish(first)
        _, merged = reg.publish(second)
        assert merged is not second
        for published in (first, second, merged):
            assert published.complete and published.summary.frozen
            with pytest.raises(ValueError):
                published.add(99)


def _run_recording_filters(catalog, monkeypatch, qid, strategy):
    """Run ``qid`` under ``strategy``; return every injected filter
    built, every ``(old, new, new memo size)`` replacement, and every
    published Bloom summary with a copy of its words at publication."""
    filters, replacements = [], []
    init = base.InjectedFilter.__init__
    replace = base.Operator.replace_filter

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        filters.append(self)

    def recording_replace(self, port, old, new):
        replacements.append((old, new, len(new._verdicts)))
        return replace(self, port, old, new)

    monkeypatch.setattr(base.InjectedFilter, "__init__", recording_init)
    monkeypatch.setattr(base.Operator, "replace_filter", recording_replace)
    ctx = ExecutionContext(catalog, strategy=make_strategy(strategy))
    published = []
    ctx.aip_publish_hooks.append(
        lambda op, port, aip_set: published.append(
            (aip_set.summary, bytes(aip_set.summary._words))
        )
    )
    execute_plan(get_query(qid).build_baseline(catalog), ctx)
    return filters, replacements, published


@pytest.mark.parametrize("qid", ["Q1A", "Q2A", "Q5A"])
def test_working_sets_are_never_written_after_publication(
    catalog, monkeypatch, qid,
):
    _, _, published = _run_recording_filters(
        catalog, monkeypatch, qid, "feedforward",
    )
    assert published
    for summary, words in published:
        assert summary.frozen
        assert bytes(summary._words) == words


@pytest.mark.parametrize("strategy", ["feedforward", "costbased"])
@pytest.mark.parametrize("qid", ["Q1A", "Q2A", "Q3A"])
def test_memos_are_sound_and_replacements_start_fresh(
    catalog, monkeypatch, qid, strategy,
):
    filters, replacements, _ = _run_recording_filters(
        catalog, monkeypatch, qid, strategy,
    )
    assert replacements and any(old._verdicts for old, _, _ in replacements)
    for old, new, memo_size in replacements:
        assert new is not old and memo_size == 0
        assert new.summary.frozen
    # Every remembered verdict is still the summary's verdict.
    for f in filters:
        for key, verdict in f._verdicts.items():
            assert f.summary.might_contain(key) == verdict


def test_memo_counts_every_row():
    bloom = BloomFilter.from_values([1, 2, 3])
    bloom.freeze()
    ctx = ExecutionContext(Catalog())
    op = PFilter(ctx, 1, Schema.of(("k", INT)), col("k").ge(0))
    injected = op.register_filter(0, "k", bloom, "t")
    pages = [[1, 9, 1, 2, 9], [2, 2, 7, 3], [9, 9]]
    for column in pages:
        page = op.passes_filters_page(ColumnBatch([column], len(column)), 0)
        assert page.columns[0] == [v for v in column if v in bloom]
    assert ctx.metrics.counters(op.op_id).tuples_pruned == sum(
        1 for column in pages for v in column if v not in bloom
    )
    assert set(injected._verdicts) == {1, 2, 3, 7, 9}
