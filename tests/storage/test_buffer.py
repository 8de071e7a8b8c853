"""Buffer manager: pin/unpin, LRU eviction, reload fidelity."""

import os

import pytest

from repro.storage.governor import MemoryGovernor


@pytest.fixture
def governor():
    g = MemoryGovernor(budget=None)
    yield g
    g.close()


class TestFrames:
    def test_add_is_resident(self, governor):
        frame = governor.buffer.add(["payload"], 100)
        assert frame.resident
        assert governor.buffer.resident_bytes == 100

    def test_evict_writes_then_reload_reads_back(self, governor):
        buffer = governor.buffer
        frame = buffer.add({"k": [1, 2, 3]}, 100)
        freed = buffer.evict_until(50)
        assert freed == 100
        assert not frame.resident
        assert frame.page_id is not None
        assert buffer.resident_bytes == 0
        payload = buffer.pin(frame)
        assert payload == {"k": [1, 2, 3]}
        buffer.unpin(frame)
        assert buffer.reloads == 1
        assert buffer.resident_bytes == 100

    def test_pinned_frames_survive_eviction(self, governor):
        buffer = governor.buffer
        pinned = buffer.add("hot", 100)
        cold = buffer.add("cold", 100)
        buffer.pin(pinned)
        freed = buffer.evict_until(1000)
        assert freed == 100
        assert pinned.resident
        assert not cold.resident
        buffer.unpin(pinned)

    def test_lru_order(self, governor):
        buffer = governor.buffer
        first = buffer.add("first", 10)
        second = buffer.add("second", 10)
        # Touch `first` so `second` becomes the LRU victim.
        buffer.pin(first)
        buffer.unpin(first)
        buffer.evict_until(10)
        assert first.resident
        assert not second.resident

    def test_release_deletes_spilled_copy(self, governor):
        buffer = governor.buffer
        frame = buffer.add("data", 10)
        buffer.evict_until(10)
        path = governor.backend.path
        assert path is not None and os.listdir(path)
        buffer.release(frame)
        assert not os.listdir(path)

    def test_unpin_without_pin_raises(self, governor):
        frame = governor.buffer.add("x", 1)
        with pytest.raises(RuntimeError):
            governor.buffer.unpin(frame)


class TestPagedRowsSlice:
    """``PagedRows.slice`` — how a scan reads an arrival run — against
    the per-index reads the arrival models make."""

    PAGE_ROWS = 4

    @staticmethod
    def _paged(page_rows=PAGE_ROWS):
        from repro.data.tpch import cached_tpch
        from repro.exec.context import ExecutionContext
        from repro.storage.buffer import PagedRows

        table = cached_tpch(scale_factor=0.002).table("nation")
        governor = MemoryGovernor(budget=None)
        ctx = ExecutionContext(cached_tpch(scale_factor=0.002),
                               governor=governor)
        return governor, PagedRows(ctx, table.schema, table.rows, page_rows)

    @staticmethod
    def _count_pins(buffer):
        pinned = []
        real = buffer.pin

        def pin(frame, ctx=None):
            pinned.append(frame.frame_id)
            return real(frame, ctx)

        buffer.pin = pin
        return pinned

    def test_slice_matches_per_index_reads(self):
        governor, paged = self._paged()
        try:
            assert len(paged) > 3 * self.PAGE_ROWS
            for start, stop in ((3, 17), (0, len(paged)), (4, 8), (5, 6),
                                (9, 9), (len(paged) - 2, len(paged))):
                assert paged.slice(start, stop) == [
                    paged[i] for i in range(start, stop)
                ]
        finally:
            governor.close()

    def test_one_pin_per_page_touched(self):
        governor, paged = self._paged()
        try:
            pinned = self._count_pins(governor.buffer)
            paged.slice(3, 17)  # rows 3..16: pages 0, 1, 2, 3, 4
            assert pinned == sorted(set(pinned))
            assert len(pinned) == 5
            pinned.clear()
            for i in range(3, 17):
                paged[i]
            assert len(pinned) == 14  # per-row reads: one pin each
        finally:
            governor.close()

    def test_evicted_pages_reload_once_per_slice(self):
        governor, paged = self._paged()
        try:
            buffer = governor.buffer
            buffer.evict_until(1 << 30)
            assert buffer.resident_bytes == 0
            rows = paged.slice(2, 19)  # pages 0..4
            assert buffer.reloads == 5
            buffer.evict_until(1 << 30)
            assert paged.slice(2, 19) == rows
            assert buffer.reloads == 10
        finally:
            governor.close()

    def test_lru_order_matches_per_row_reads(self):
        orders = []
        for by_slice in (False, True):
            governor, paged = self._paged()
            try:
                # Touch a later page first so the reads below reorder
                # the LRU list rather than confirm the build order.
                paged[len(paged) - 1]
                if by_slice:
                    paged.slice(1, 15)
                else:
                    for i in range(1, 15):
                        paged[i]
                orders.append(list(governor.buffer._lru))
            finally:
                governor.close()
        assert orders[0] == orders[1]
        assert orders[0][-4:] == [1, 2, 3, 4]
