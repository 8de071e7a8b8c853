"""Memory governor: leases, reclaim policy, edge-case budgets."""

import os

import pytest

from repro.common.sizing import row_nbytes
from repro.data.catalog import Catalog
from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.storage.buffer import PagedRows
from repro.storage.governor import MemoryGovernor
from repro.storage.spill import Spool


class TestLeases:
    def test_grow_shrink_close(self):
        g = MemoryGovernor(budget=1 << 40)
        lease = g.lease("op")
        g.request(lease, 100)
        assert g.resident_bytes == 100
        assert g.peak_resident_bytes == 100
        g.release(lease, 40)
        assert g.resident_bytes == 60
        lease.close()
        assert g.resident_bytes == 0
        assert g.peak_resident_bytes == 100
        g.close()

    def test_negative_grow_releases(self):
        g = MemoryGovernor(budget=1 << 40)
        lease = g.lease("op")
        g.request(lease, 100)
        g.request(lease, -30)
        assert lease.nbytes == 70
        g.close()

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            MemoryGovernor(budget=-1)


class _FakeSpillable:
    def __init__(self, nbytes):
        self.nbytes = nbytes
        self.asked = []

    def spillable_nbytes(self):
        return self.nbytes

    def spill(self, need, ctx):
        self.asked.append(need)
        freed = min(self.nbytes, need)
        self.nbytes -= freed
        return freed


def _page(governor, nbytes):
    """A scan whose one resident page weighs ``nbytes`` (a multiple of
    its 24-byte rows)."""
    schema = Schema.of(("a", "int"))
    rows = [(0,)] * (nbytes // row_nbytes(schema))
    scan = PagedRows(ExecutionContext(Catalog(), governor=governor), schema, rows)
    scan[0]
    assert governor.buffer.resident_bytes == nbytes
    return scan


class TestReclaim:
    def test_buffer_evicted_before_operators_spill(self):
        g = MemoryGovernor(budget=1000)
        page = _page(g, 600)
        handler = _FakeSpillable(600)
        g.register_spillable(handler)
        lease = g.lease("op")
        g.request(lease, 600)
        # 600 page + 600 grow > 1000: the page eviction alone covers it.
        assert not handler.asked
        assert page.page is None
        assert g.resident_bytes == 600
        assert g.peak_resident_bytes <= 1000
        g.close()

    def test_largest_spillable_asked_first(self):
        g = MemoryGovernor(budget=100)
        small = _FakeSpillable(40)
        big = _FakeSpillable(90)
        g.register_spillable(small)
        g.register_spillable(big)
        lease = g.lease("op")
        g.request(lease, 40)
        g.request(lease, 40)
        g.request(lease, 40)  # 120 > 100: needs 20; big spills first
        assert big.asked and not small.asked
        g.close()

    def test_room_counts_what_a_reclaim_could_free(self):
        g = MemoryGovernor(budget=1000)
        _page(g, 288)
        g.register_spillable(_FakeSpillable(200))
        lease = g.lease("op")
        g.request(lease, 400)
        # 1000 - 688 resident, plus the 288-byte page and 200 spillable.
        assert g.room() == 800
        g.buffer.hold(100)
        assert g.room() == 700  # a held run's rows cannot be evicted
        g.close()

    def test_over_budget_recorded_when_nothing_reclaimable(self):
        g = MemoryGovernor(budget=10)
        lease = g.lease("op")
        g.request(lease, 100)
        assert g.resident_bytes == 100  # correctness over enforcement
        assert g.over_budget_events == 1
        g.close()


class TestEdgeBudgets:
    def test_zero_budget_still_functions(self):
        g = MemoryGovernor(budget=0)
        lease = g.lease("op")
        g.request(lease, 10)
        g.release(lease, 10)
        assert g.over_budget_events == 1
        assert g.resident_bytes == 0
        g.close()

    def test_page_records_shrink_with_small_budgets(self):
        wide_row = 200
        unbounded = MemoryGovernor(budget=1 << 40)
        tiny = MemoryGovernor(budget=8192)
        try:
            assert unbounded.page_records_for(wide_row) > \
                tiny.page_records_for(wide_row)
            assert tiny.page_records_for(wide_row) >= 1
            # Even absurd record sizes yield a usable page.
            assert tiny.page_records_for(10**9) == 1
        finally:
            unbounded.close()
            tiny.close()


class TestSpoolReclaim:
    def test_tail_pages_flush_under_pressure(self):
        g = MemoryGovernor(budget=100)
        spool = Spool(None, g, record_nbytes=10, label="t")
        for i in range(8):
            spool.append(i)
        assert spool.spillable_nbytes() == 80
        lease = g.lease("op")
        g.request(lease, 60)  # 80 + 60 > 100: the tail must flush out
        assert spool.spillable_nbytes() == 0
        assert g.peak_resident_bytes <= 100
        lease.close()
        assert list(spool.records()) == list(range(8))
        spool.discard()
        g.close()

    def test_records_stream_repeatedly(self):
        g = MemoryGovernor(budget=1 << 40)
        spool = Spool(None, g, record_nbytes=8, label="t")
        for i in range(5):
            spool.append(i)
        spool.flush()
        assert list(spool.records()) == list(spool.records())
        spool.discard()
        assert list(spool.records()) == []
        g.close()

    def test_discard_closes_the_lease(self):
        g = MemoryGovernor(budget=1 << 40)
        spool = Spool(None, g, record_nbytes=8, label="t")
        spool.append(1)
        spool.discard()
        assert g.resident_bytes == 0
        g.begin_epoch()  # prunes closed leases
        assert not [lease for lease in g._leases if lease.label == "spool:t"]
        g.close()


class TestCleanup:
    def test_close_removes_spill_dir(self):
        g = MemoryGovernor(budget=1 << 40)
        spool = Spool(None, g, record_nbytes=10, label="t")
        spool.append("data")
        spool.flush()
        path = g.backend.path
        assert path is not None and os.path.isdir(path)
        g.close()
        assert not os.path.exists(path)

    def test_close_without_spills_is_clean(self):
        g = MemoryGovernor(budget=1 << 40)
        assert g.backend.path is None
        g.close()
