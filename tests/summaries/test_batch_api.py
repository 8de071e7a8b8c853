"""Batch summary API: ``add_many``/``might_contain_many`` must be
element-wise identical to the per-element forms on every summary kind,
and the injected-filter batch probe must keep counter semantics."""

import pytest

from repro.exec.pages import ColumnBatch
from repro.summaries.base import Summary
from repro.summaries.bloom import BloomFilter
from repro.summaries.bounds import BoundSummary, MinMaxSummary
from repro.summaries.hashset import HashSetSummary


VALUES = list(range(0, 120, 2)) + ["FRANCE", "GERMANY", ("pair", 3)]
PROBES = list(range(150)) + ["FRANCE", "JAPAN", ("pair", 3), ("pair", 4)]


def _numeric(values):
    return [v for v in values if isinstance(v, int)]


@pytest.mark.parametrize("factory", [
    lambda: BloomFilter(64),
    # The explicit geometry an AIP set's spec builds (64 bits, nearly
    # saturated by VALUES).
    lambda: BloomFilter(0, n_bits=64),
    lambda: BloomFilter(64, n_hashes=3),
    lambda: HashSetSummary(n_buckets=16),
])
class TestBatchMatchesPerElement:
    def test_add_many_state(self, factory):
        batch, loop = factory(), factory()
        batch.add_many(VALUES)
        for v in VALUES:
            loop.add(v)
        assert batch.n_added == loop.n_added == len(VALUES)
        assert batch.might_contain_many(PROBES) == \
            loop.might_contain_many(PROBES)

    def test_probe_many_matches_scalar(self, factory):
        s = factory()
        s.add_many(VALUES)
        assert s.might_contain_many(PROBES) == \
            [s.might_contain(p) for p in PROBES]

    def test_empty_batch(self, factory):
        s = factory()
        s.add_many([])
        assert s.n_added == 0
        assert s.might_contain_many([]) == []


class TestHashSetDiscardedBuckets:
    def test_batch_insert_respects_discards(self):
        batch, loop = HashSetSummary(n_buckets=8), HashSetSummary(n_buckets=8)
        for s in (batch, loop):
            s.discard_bucket(0)
            s.discard_bucket(3)
        batch.add_many(range(200))
        for v in range(200):
            loop.add(v)
        assert batch.byte_size() == loop.byte_size()
        probes = range(400)
        assert batch.might_contain_many(probes) == \
            loop.might_contain_many(probes)
        # Discarded buckets pass everything through in both forms.
        assert all(
            ok for v, ok in zip(probes, batch.might_contain_many(probes))
            if batch._bucket_of(v) in (0, 3)
        )


class TestBoundsBatch:
    def test_minmax_add_many_counts_consumed(self):
        s = MinMaxSummary()
        consumed = s.add_many([5, None, 1, 9, None])
        assert consumed == 5  # None entries still count as scanned
        assert (s.min, s.max, s.count) == (1, 9, 3)
        assert s.add_many([]) == 0

    def test_minmax_add_many_matches_loop(self):
        batch, loop = MinMaxSummary(), MinMaxSummary()
        values = [7, None, -2, 7, 100, None, 3]
        batch.add_many(values)
        for v in values:
            loop.add(v)
        assert (batch.min, batch.max, batch.count) == \
            (loop.min, loop.max, loop.count)

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_bound_probe_many(self, op):
        bound = BoundSummary(op, 10)
        probes = [None, 5, 10, 15, -3]
        assert bound.might_contain_many(probes) == \
            [bound.might_contain(p) for p in probes]

    def test_bound_add_many_rejected(self):
        with pytest.raises(TypeError):
            BoundSummary("<", 1).add_many([5])


class TestAIPSetBatch:
    """AIPSet's batch forms delegate to the underlying summary and stay
    element-wise identical to the scalar forms."""

    def _aip_set(self):
        from repro.aip.sets import AIPSet, AIPSetSpec

        return AIPSet("k", AIPSetSpec("k", 256), "test")

    def test_add_many_might_contain_many(self):
        batch, loop = self._aip_set(), self._aip_set()
        batch.add_many(VALUES)
        for v in VALUES:
            loop.add(v)
        assert batch.summary.n_added == loop.summary.n_added
        assert batch.summary.might_contain_many(PROBES) == \
            loop.summary.might_contain_many(PROBES)
        assert batch.summary.might_contain_many(PROBES) == \
            [p in loop for p in PROBES]

    def test_from_values_consumes_iterator_once(self):
        from repro.aip.sets import AIPSet, AIPSetSpec

        spec = AIPSetSpec("k", 256)
        aip_set = AIPSet.from_values("k", spec, "test", iter(VALUES))
        assert aip_set.complete
        assert aip_set.summary.n_added == len(VALUES)
        assert all(aip_set.summary.might_contain_many(VALUES))


class TestDefaultFallback:
    """A custom Summary only defining the scalar hooks still gets
    correct batch behaviour from the base class."""

    class OddsOnly(Summary):
        def __init__(self):
            self.seen = set()

        def add(self, value):
            self.seen.add(value)

        def might_contain(self, value):
            return value in self.seen or value % 2 == 1

        def byte_size(self):
            return 8

    def test_base_defaults(self):
        s = self.OddsOnly()
        s.add_many([2, 4])
        assert s.seen == {2, 4}
        assert s.might_contain_many([1, 2, 3, 6]) == [True, True, True, False]


class TestInjectedFilterBatch:
    """``passes_page`` advances ``probed``/``pruned`` by the rows probed
    and rejected, and preserves survivor order."""

    def _filters(self):
        from repro.exec.operators.base import InjectedFilter

        summary = HashSetSummary.from_values([1, 3, 5])
        return (
            InjectedFilter(0, "k", summary, "a"),
            InjectedFilter(0, "k", summary, "b"),
        )

    def test_counters_match_per_row(self):
        batch_f, _ = self._filters()
        rows = [(v, "payload") for v in range(8)]
        survivors = batch_f.passes_page(ColumnBatch.from_rows(rows, 2))
        expected = [r for r in rows if r[0] in batch_f.summary]
        assert survivors.rows() == expected
        assert batch_f.probed == len(rows)
        assert batch_f.pruned == len(rows) - len(expected)

    def test_all_pass_returns_same_page(self):
        batch_f, _ = self._filters()
        page = ColumnBatch.from_rows([(1,), (3,), (5,)], 1)
        assert batch_f.passes_page(page) is page
        assert batch_f.pruned == 0

    def test_empty_batch(self):
        batch_f, _ = self._filters()
        page = ColumnBatch.from_rows([], 1)
        assert batch_f.passes_page(page) is page
        assert batch_f.probed == 0
