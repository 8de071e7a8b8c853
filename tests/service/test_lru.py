"""Tests for the shared LRU mapping."""

import pytest

from repro.service.lru import LruDict


class TestLruDict:
    def test_get_refreshes_recency(self):
        lru = LruDict(2, byte_size_of=lambda value: 1, max_bytes=100)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1
        lru.put("c", 3)
        assert "b" not in lru
        assert "a" in lru and "c" in lru

    def test_entry_cap(self):
        lru = LruDict(3, byte_size_of=lambda value: 1, max_bytes=100)
        for i in range(5):
            lru.put(i, i)
        assert len(lru) == 3
        assert list(lru) == [2, 3, 4]

    def test_byte_cap_evicts_oldest(self):
        lru = LruDict(100, byte_size_of=len, max_bytes=10)
        lru.put("a", "xxxx")
        lru.put("b", "xxxx")
        lru.put("c", "xxxx")  # 12 bytes > 10: "a" must go
        assert "a" not in lru
        assert lru.byte_size() == 8

    def test_oversized_entry_not_stored(self):
        """A value alone exceeding the byte cap must not pin the cache
        over its cap forever."""
        lru = LruDict(100, byte_size_of=len, max_bytes=4)
        assert lru.put("a", "x" * 100) is False
        assert "a" not in lru
        assert lru.byte_size() == 0
        assert lru.put("b", "xx") is True
        assert "b" in lru

    def test_oversized_replacement_keeps_existing(self):
        lru = LruDict(100, byte_size_of=len, max_bytes=4)
        lru.put("a", "xx")
        assert lru.put("a", "x" * 100) is False
        assert lru.get("a") == "xx"
        assert lru.byte_size() == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            LruDict(0, byte_size_of=len, max_bytes=100)
