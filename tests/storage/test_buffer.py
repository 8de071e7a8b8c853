"""Buffer manager: pin/unpin, LRU eviction, reload fidelity."""

import pytest

from repro.storage.governor import MemoryGovernor

#: A stand-in table: pages are slices of it.
ROWS = [(i, "row%d" % i) for i in range(8)]


@pytest.fixture
def governor():
    g = MemoryGovernor(budget=None)
    yield g
    g.close()


class TestFrames:
    def test_add_is_resident(self, governor):
        frame = governor.buffer.add(ROWS, 0, 2, 100)
        assert frame.resident
        assert frame.payload == ROWS[0:2]
        assert governor.buffer.resident_bytes == 100

    def test_evict_drops_then_reload_slices_again(self, governor):
        buffer = governor.buffer
        frame = buffer.add(ROWS, 2, 5, 100)
        freed = buffer.evict_until(50)
        assert freed == 100
        assert not frame.resident
        assert buffer.resident_bytes == 0
        # A clean page is dropped, never written.
        assert governor.backend.pages_written == 0
        assert governor.backend.path is None
        payload = buffer.pin(frame)
        assert payload == ROWS[2:5]
        assert all(got is row for got, row in zip(payload, ROWS[2:5]))
        buffer.unpin(frame)
        assert buffer.reloads == 1
        assert buffer.resident_bytes == 100

    def test_pinned_frames_survive_eviction(self, governor):
        buffer = governor.buffer
        pinned = buffer.add(ROWS, 0, 1, 100)
        cold = buffer.add(ROWS, 1, 2, 100)
        buffer.pin(pinned)
        freed = buffer.evict_until(1000)
        assert freed == 100
        assert pinned.resident
        assert not cold.resident
        buffer.unpin(pinned)

    def test_lru_order(self, governor):
        buffer = governor.buffer
        first = buffer.add(ROWS, 0, 1, 10)
        second = buffer.add(ROWS, 1, 2, 10)
        # Touch `first` so `second` becomes the LRU victim.
        buffer.pin(first)
        buffer.unpin(first)
        buffer.evict_until(10)
        assert first.resident
        assert not second.resident

    def test_release_forgets_an_evicted_frame(self, governor):
        buffer = governor.buffer
        frame = buffer.add(ROWS, 0, 4, 10)
        buffer.evict_until(10)
        assert frame.frame_id in buffer._all
        buffer.release(frame)
        assert frame.frame_id not in buffer._all
        assert buffer.resident_bytes == 0
        assert governor.backend.path is None

    def test_unpin_without_pin_raises(self, governor):
        frame = governor.buffer.add(ROWS, 0, 1, 1)
        with pytest.raises(RuntimeError):
            governor.buffer.unpin(frame)

    def test_run_rows_are_held_on_the_pool_lease(self):
        """An arrival run's rows past its first page are accounted on
        the buffer pool's lease, so they count against the budget but
        not as operator state."""
        g = MemoryGovernor(budget=1000)
        try:
            g.buffer.hold(600)
            assert g.buffer.resident_bytes == g.resident_bytes == 600
            assert g.take_window_state_peak() == 0
            g.buffer.unhold(600)
            assert g.resident_bytes == 0
        finally:
            g.close()


class TestPagedRowsSlice:
    """``PagedRows`` — how a scan reads a table under a governor — is
    lazy and forward-only: a page is built on its first read and
    released once a read moves past it, while any access pattern still
    reads the table's rows."""

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
        return (
            governor, table.rows,
            PagedRows(ctx, table.schema, table.rows, page_rows),
        )

    @staticmethod
    def _record(buffer, name):
        """Wrap ``buffer.<name>`` to log the frame id of every call."""
        calls = []
        real = getattr(buffer, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            frame = result if name == "add" else args[0]
            calls.append(frame.frame_id)
            return result

        setattr(buffer, name, wrapper)
        return calls

    def test_new_paged_rows_holds_nothing(self):
        governor, rows, paged = self._paged()
        try:
            assert len(paged) == len(rows) > 3 * self.PAGE_ROWS
            assert governor.buffer.resident_bytes == 0
            assert governor.resident_bytes == 0
            assert not governor.buffer._all
        finally:
            governor.close()

    def test_one_pin_per_page_touched(self):
        governor, _rows, paged = self._paged()
        try:
            built = self._record(governor.buffer, "add")
            pinned = self._record(governor.buffer, "pin")
            paged.slice(3, 17)  # rows 3..16: pages 0, 1, 2, 3, 4
            assert len(built) == 5
            assert pinned == built
            pinned.clear()
            for i in range(17, 20):
                paged[i]
            assert len(pinned) == 3  # per-row reads: one pin each
            assert len(built) == 5  # ... on the page the slice built
        finally:
            governor.close()

    def test_pages_behind_the_cursor_are_released(self):
        governor, _rows, paged = self._paged()
        try:
            buffer = governor.buffer
            paged.slice(0, 10)  # pages 0, 1, 2; only 2 stays
            assert len(buffer._all) == 1
            (page2,) = buffer._all.values()
            assert buffer.resident_bytes == page2.nbytes > 0
            # An evicted page is released too, and nothing was written.
            buffer.evict_until(1 << 30)
            assert not page2.resident
            paged[12]  # page 3
            assert page2.frame_id not in buffer._all
            assert governor.backend.path is None
            assert len(buffer._all) == 1
            paged.release()
            assert not buffer._all
            assert governor.resident_bytes == 0
        finally:
            governor.close()

    def test_evicted_pages_reload_once_per_slice(self):
        governor, rows, paged = self._paged()
        try:
            buffer = governor.buffer
            assert paged.slice(0, 6) == rows[0:6]  # page 1 partly read
            buffer.evict_until(1 << 30)
            assert buffer.resident_bytes == 0
            assert paged.slice(6, 19) == rows[6:19]  # pages 1..4
            assert buffer.reloads == 1  # page 1; pages 2..4 are new
            buffer.evict_until(1 << 30)
            assert paged.slice(19, 22) == rows[19:22]  # pages 4, 5
            assert buffer.reloads == 2
        finally:
            governor.close()

    def test_slice_matches_per_index_reads(self):
        governor, _rows, paged = self._paged()
        try:
            assert len(paged) > 3 * self.PAGE_ROWS
            for start, stop in ((3, 17), (0, len(paged)), (4, 8), (5, 6),
                                (9, 9), (len(paged) - 2, len(paged))):
                assert paged.slice(start, stop) == [
                    paged[i] for i in range(start, stop)
                ]
        finally:
            governor.close()

    def test_lru_order_matches_per_row_reads(self):
        orders = []
        for by_slice in (False, True):
            governor, _rows, paged = self._paged()
            try:
                # Read the last page first: it stays ahead of the
                # cursor, so the reads below leave it live but older.
                paged[len(paged) - 1]
                if by_slice:
                    paged.slice(1, 15)
                else:
                    for i in range(1, 15):
                        paged[i]
                frames = paged._frames
                orders.append(list(governor.buffer._lru))
                # Pages 0..2 were passed and released; only the last
                # page and page 3 stay, page 3 the most recent.
                assert orders[-1] == [frames[-1].frame_id,
                                      frames[3].frame_id]
            finally:
                governor.close()
        assert orders[0] == orders[1]

    def test_random_and_backward_reads_after_release_equal_the_list(self):
        governor, rows, paged = self._paged()
        try:
            n = len(rows)
            assert paged.slice(0, n) == rows
            paged.release()
            assert [paged[i] for i in range(n - 1, -1, -1)] == rows[::-1]
            for start, stop in ((3, 17), (0, n), (4, 8), (5, 6), (9, 9),
                                (n - 2, n), (1, 3)):
                assert paged.slice(start, stop) == rows[start:stop]
            assert [paged[i] for i in (7, 0, n - 1, 12, 3, -1, -n)] == [
                rows[i] for i in (7, 0, n - 1, 12, 3, -1, -n)
            ]
            governor.buffer.evict_until(1 << 30)
            assert list(paged) == rows
            with pytest.raises(IndexError):
                paged[n]
        finally:
            governor.close()


class TestCleanPages:
    """Table pages are clean: the catalog's row list always holds their
    rows, so the buffer pool drops an evicted page instead of writing
    it, and a reload slices it again from the table."""

    def test_page_evicted_under_pressure_never_reaches_the_backend(self):
        from repro.data.tpch import cached_tpch
        from repro.exec.context import ExecutionContext
        from repro.storage.buffer import PagedRows

        catalog = cached_tpch(scale_factor=0.002)
        table = catalog.table("supplier")
        governor = MemoryGovernor(budget=4096)
        ctx = ExecutionContext(catalog, governor=governor)
        try:
            paged = PagedRows(ctx, table.schema, table.rows, 4)
            paged.slice(0, 4)
            (frame,) = governor.buffer._all.values()
            lease = governor.lease("op")
            governor.request(lease, 4096, ctx)  # only room for the lease: evict page 0
            assert not frame.resident
            assert governor.buffer.evictions == 1
            assert governor.backend.pages_written == 0
            assert governor.backend.path is None
            assert ctx.metrics.spill_events == 0
            lease.close()

            again = paged.slice(0, 4)
            assert all(
                got is row for got, row in zip(again, table.rows[0:4])
            )
            assert len(again) == 4
            # One page read, charged as such.
            assert governor.buffer.reloads == 1
            assert ctx.metrics.spill_events == 1
            assert ctx.metrics.spill_bytes == frame.nbytes
            assert governor.backend.pages_read == 0
        finally:
            governor.close()
