"""Tests for the plan-fingerprint result cache."""

import pytest

from repro.data.schema import Attribute, INT, Schema
from repro.service import result_cache
from repro.service.result_cache import ResultCache


def _schema():
    return Schema([Attribute("x", INT)])


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.lookup("sig") is None
        cache.store("sig", [(1,), (2,)], _schema(), 0.5)
        entry = cache.lookup("sig")
        assert entry is not None
        assert entry.rows == [(1,), (2,)]
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.seconds_saved == pytest.approx(0.5)

    def test_store_is_idempotent(self):
        cache = ResultCache()
        cache.store("sig", [(1,)], _schema(), 0.1)
        cache.store("sig", [(9,)], _schema(), 0.9)
        assert cache.lookup("sig").rows == [(1,)]

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(result_cache, "MAX_ENTRIES", 2)
        cache = ResultCache()
        cache.store("a", [(1,)], _schema(), 0.1)
        cache.store("b", [(2,)], _schema(), 0.1)
        cache.lookup("a")  # refresh a; b becomes oldest
        cache.store("c", [(3,)], _schema(), 0.1)
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None

    def test_byte_size_counts_rows(self):
        cache = ResultCache()
        cache.store("sig", [(1,)] * 10, _schema(), 0.1)
        assert cache.byte_size() == 10 * _schema().row_byte_size()

    def test_clear(self):
        cache = ResultCache()
        cache.store("sig", [(1,)], _schema(), 0.1)
        cache.clear()
        assert cache.lookup("sig") is None
        assert len(cache) == 0
