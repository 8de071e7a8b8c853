"""The buffer pool through its public face: ``PagedRows`` scans, one
resident page each, LRU eviction across scans, reload fidelity."""

import pytest

from repro.common.sizing import row_nbytes, rows_nbytes
from repro.data.catalog import Catalog
from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.storage.buffer import PagedRows
from repro.storage.governor import MemoryGovernor

#: A stand-in table: pages are slices of it.
SCHEMA = Schema.of(("a", "int"), ("b", "str"))
ROWS = [(i, "row%d" % i) for i in range(1100)]


@pytest.fixture
def governor():
    g = MemoryGovernor(budget=1 << 40)
    yield g
    g.close()


def _scan(governor):
    ctx = ExecutionContext(Catalog(), governor=governor)
    return PagedRows(ctx, SCHEMA, ROWS)


def _page_rows(governor):
    return governor.page_records_for(row_nbytes(SCHEMA))


def _page_nbytes(governor):
    return rows_nbytes(SCHEMA, _page_rows(governor))


class TestFrames:
    """Each scan holds one frame of the pool: its current page."""

    def test_add_is_resident(self, governor):
        paged = _scan(governor)
        assert paged[0] == ROWS[0]
        assert paged.page == ROWS[:_page_rows(governor)]
        assert governor.buffer.resident_bytes == _page_nbytes(governor)
        assert governor.resident_bytes == _page_nbytes(governor)

    def test_evict_drops_then_reload_slices_again(self, governor):
        buffer = governor.buffer
        paged = _scan(governor)
        page_rows = _page_rows(governor)
        paged[page_rows]  # page 1
        freed = buffer.evict_until(1)
        assert freed == _page_nbytes(governor)
        assert paged.page is None
        assert buffer.resident_bytes == 0
        assert buffer.evictions == 1
        # A clean page is dropped, never written.
        assert governor.backend.pages_written == 0
        assert governor.backend.path is None
        again = paged.slice(page_rows, 2 * page_rows)
        assert again == ROWS[page_rows:2 * page_rows]
        assert all(got is row for got, row in zip(again, ROWS[page_rows:]))
        # One reload, charged once as one page read.
        assert buffer.reloads == 1
        assert paged._ctx.metrics.spill_events == 1
        assert paged._ctx.metrics.spill_bytes == _page_nbytes(governor)
        assert buffer.resident_bytes == _page_nbytes(governor)

    def test_lru_order(self, governor):
        buffer = governor.buffer
        first, second = _scan(governor), _scan(governor)
        first[0]
        second[0]
        # Read `first` again so `second` becomes the LRU victim.
        first[1]
        assert buffer.evict_until(1) == _page_nbytes(governor)
        assert first.page is not None
        assert second.page is None

    def test_release_forgets_an_evicted_frame(self, governor):
        buffer = governor.buffer
        paged = _scan(governor)
        paged[0]
        buffer.evict_until(1)
        paged.release()
        assert buffer.resident_bytes == 0
        assert governor.backend.path is None
        # A released page is admitted afresh, not reloaded.
        paged[0]
        assert buffer.reloads == 0
        assert buffer.resident_bytes == _page_nbytes(governor)

    def test_release_returns_the_bytes(self, governor):
        first, second = _scan(governor), _scan(governor)
        first[0]
        second[0]
        assert governor.resident_bytes == 2 * _page_nbytes(governor)
        first.release()
        assert governor.buffer.resident_bytes == _page_nbytes(governor)
        second.release()
        assert governor.resident_bytes == 0
        assert governor.buffer.evictions == 0

    def test_epoch_rollback_drops_a_failed_batchs_pages(self, governor):
        kept = _scan(governor)
        kept[0]
        failed = _scan(governor)
        epoch = governor.begin_epoch()
        failed[0]
        governor.abort_epoch(epoch)
        assert failed.page is None
        assert kept.page is not None
        assert governor.resident_bytes == _page_nbytes(governor)
        assert governor.buffer.evictions == 0

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
    lazy and keeps one page: a page is admitted on its first read and
    released once a read moves to another page, while any access
    pattern still reads the table's rows."""

    @staticmethod
    def _record(buffer, name):
        """Wrap ``buffer.<name>`` to count its calls."""
        calls = []
        real = getattr(buffer, name)

        def wrapper(scan, *args):
            calls.append(scan)
            return real(scan, *args)

        setattr(buffer, name, wrapper)
        return calls

    def test_new_paged_rows_holds_nothing(self, governor):
        paged = _scan(governor)
        assert len(paged) == len(ROWS) > 3 * _page_rows(governor)
        assert governor.buffer.resident_bytes == 0
        assert governor.resident_bytes == 0
        assert paged.page is None

    def test_one_page_read_per_page_touched(self, governor):
        page_rows = _page_rows(governor)
        paged = _scan(governor)
        admitted = self._record(governor.buffer, "admit")
        touched = self._record(governor.buffer, "touch")
        paged.slice(3, 4 * page_rows + 1)  # pages 0, 1, 2, 3, 4
        assert len(admitted) == 5
        assert not touched
        for i in range(4 * page_rows + 1, 4 * page_rows + 4):
            paged[i]
        assert len(touched) == 3  # per-row reads: one each
        assert len(admitted) == 5  # ... on the page the slice admitted

    def test_pages_behind_the_cursor_are_released(self, governor):
        buffer = governor.buffer
        page_rows = _page_rows(governor)
        paged = _scan(governor)
        paged.slice(0, 2 * page_rows + 10)  # pages 0, 1, 2; only 2 stays
        assert paged.page == ROWS[2 * page_rows:3 * page_rows]
        assert buffer.resident_bytes == _page_nbytes(governor)
        # An evicted page is released too, and nothing was written.
        buffer.evict_until(1 << 30)
        paged[3 * page_rows]  # page 3
        assert buffer.reloads == 0
        assert governor.backend.path is None
        assert buffer.resident_bytes == _page_nbytes(governor)
        paged.release()
        assert governor.resident_bytes == 0

    def test_evicted_pages_reload_once_per_slice(self, governor):
        buffer = governor.buffer
        page_rows = _page_rows(governor)
        paged = _scan(governor)
        stop = page_rows + 10
        assert paged.slice(0, stop) == ROWS[0:stop]  # page 1 partly read
        buffer.evict_until(1 << 30)
        assert buffer.resident_bytes == 0
        end = 4 * page_rows + 3
        assert paged.slice(stop, end) == ROWS[stop:end]  # pages 1..4
        assert buffer.reloads == 1  # page 1; pages 2..4 are new
        buffer.evict_until(1 << 30)
        assert paged.slice(end, len(ROWS)) == ROWS[end:]  # pages 4 on
        assert buffer.reloads == 2

    def test_slice_matches_per_index_reads(self, governor):
        paged = _scan(governor)
        n, page_rows = len(paged), _page_rows(governor)
        for start, stop in ((3, 3 * page_rows + 17), (0, n), (4, 8),
                            (5, 6), (9, 9), (n - 2, n)):
            assert paged.slice(start, stop) == [
                paged[i] for i in range(start, stop)
            ]

    def test_lru_order_matches_per_row_reads(self):
        """Reading a run by ``slice`` or row by row leaves the scans in
        the same LRU order, each with one page resident."""
        orders = []
        for by_slice in (False, True):
            governor = MemoryGovernor(budget=1 << 40)
            try:
                first, second = _scan(governor), _scan(governor)
                first[0]
                second[0]
                stop = 2 * _page_rows(governor) + 5
                if by_slice:
                    first.slice(1, stop)
                else:
                    for i in range(1, stop):
                        first[i]
                lru = list(governor.buffer._lru)
                assert lru == [second, first]
                orders.append([scan is first for scan in lru])
                assert governor.resident_bytes == 2 * _page_nbytes(governor)
            finally:
                governor.close()
        assert orders[0] == orders[1]

    def test_random_and_backward_reads_after_release_equal_the_list(
        self, governor,
    ):
        rows = ROWS
        paged = _scan(governor)
        n = len(rows)

        def one_page_resident():
            return governor.buffer.resident_bytes == rows_nbytes(
                SCHEMA, len(paged.page)
            )

        assert paged.slice(0, n) == rows
        paged.release()
        assert [paged[i] for i in range(n - 1, -1, -1)] == rows[::-1]
        assert one_page_resident()
        for start, stop in ((3, 17), (0, n), (4, 8), (5, 6), (9, 9),
                            (n - 2, n), (1, 3), (600, 300 + n // 2)):
            assert paged.slice(start, stop) == rows[start:stop]
            assert one_page_resident()  # whatever the read order
        assert [paged[i] for i in (7, 0, n - 1, 12, 3, -1, -n)] == [
            rows[i] for i in (7, 0, n - 1, 12, 3, -1, -n)
        ]
        governor.buffer.evict_until(1 << 30)
        assert list(paged) == rows
        with pytest.raises(IndexError):
            paged[n]


class TestCleanPages:
    """Table pages are clean: the catalog's row list always holds their
    rows, so the buffer pool drops an evicted page instead of writing
    it, and a reload slices it again from the table."""

    def test_page_evicted_under_pressure_never_reaches_the_backend(self):
        from repro.data.tpch import cached_tpch

        catalog = cached_tpch(scale_factor=0.002)
        table = catalog.table("supplier")
        governor = MemoryGovernor(budget=4096)
        ctx = ExecutionContext(catalog, governor=governor)
        try:
            paged = PagedRows(ctx, table.schema, table.rows)
            page_rows = governor.page_records_for(row_nbytes(table.schema))
            paged.slice(0, page_rows)
            nbytes = governor.buffer.resident_bytes
            assert nbytes == rows_nbytes(table.schema, page_rows)
            lease = governor.lease("op")
            governor.request(lease, 4096, ctx)  # only room for the lease: evict page 0
            assert paged.page is None
            assert governor.buffer.evictions == 1
            assert governor.backend.pages_written == 0
            assert governor.backend.path is None
            assert ctx.metrics.spill_events == 0
            lease.close()

            again = paged.slice(0, page_rows)
            assert all(
                got is row for got, row in zip(again, table.rows[0:page_rows])
            )
            assert len(again) == page_rows
            # One page read, charged as such.
            assert governor.buffer.reloads == 1
            assert ctx.metrics.spill_events == 1
            assert ctx.metrics.spill_bytes == nbytes
            assert governor.backend.pages_read == 0
        finally:
            governor.close()
