"""The buffer pool: one table page per paged scan, LRU eviction.

A scan under a governor reads its table through :class:`PagedRows`, a
read-only sequence (``len`` + indexing, which is all the arrival models
need) over the table's pages.  A page is a slice of the table's
immutable row list, ``rows[start:stop]``, weighed as its rows weigh
everywhere else (:func:`repro.common.sizing.rows_nbytes`).  A scan keeps
only its current page: the first read of a page admits it to the pool,
and a read of any other page releases it first (a scan reads rows in
index order, once each, so a page it has left is never read again; a
read elsewhere admits that page in turn, so any access pattern stays
correct and only forward scans are cheap).

Table pages are clean — the catalog's row list always holds their rows —
so eviction writes nothing: the next read of an evicted page slices it
again from the table's rows (the same tuple objects), charged as one
page read.  Only spools (:mod:`repro.storage.spill`) write to disk.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.sizing import row_nbytes, rows_nbytes


class BufferManager:
    """The LRU of the scans whose page is resident, accounted on one
    governor lease.

    The lease also carries the rows an arrival run holds past its
    first page while the run is pushed (:meth:`hold`), so the bytes a
    run keeps alive sit inside the budget."""

    def __init__(self, governor):
        self.governor = governor
        self._lease = governor.lease("buffer-pool")
        #: The scans whose page is resident, least recently read first.
        self._lru: "OrderedDict[PagedRows, None]" = OrderedDict()
        self.evictions = 0
        self.reloads = 0

    @property
    def resident_bytes(self) -> int:
        return self._lease.nbytes

    # -- page lifecycle --------------------------------------------------

    def admit(self, scan: "PagedRows", ctx=None) -> None:
        """Account ``scan``'s new page and make it the most recent."""
        self.governor.request(self._lease, scan.nbytes, ctx)
        self._lru[scan] = None

    def reload(self, scan: "PagedRows", ctx=None) -> None:
        """Account ``scan``'s evicted page again, charged as one page
        read."""
        self.governor.charge_spill(ctx, scan.nbytes)
        self.governor.request(self._lease, scan.nbytes, ctx)
        self.reloads += 1
        self._lru[scan] = None

    def touch(self, scan: "PagedRows") -> None:
        self._lru.move_to_end(scan)

    def release(self, scan: "PagedRows") -> None:
        """Return the bytes of ``scan``'s page if it is resident."""
        if scan in self._lru:
            del self._lru[scan]
            self.governor.release(self._lease, scan.nbytes)

    def release_epoch(self, epoch: int) -> None:
        """Drop every resident page admitted in or after ``epoch`` (the
        governor's rollback of a failed batch)."""
        for scan in [s for s in self._lru if s.epoch >= epoch]:
            self.release(scan)
            scan.page = None

    # -- arrival runs -----------------------------------------------------

    def hold(self, nbytes: int, ctx=None) -> None:
        """Account ``nbytes`` of rows a run holds outside any page; the
        matching :meth:`unhold` returns them."""
        self.governor.request(self._lease, nbytes, ctx)

    def unhold(self, nbytes: int) -> None:
        self.governor.release(self._lease, nbytes)

    # -- eviction ---------------------------------------------------------

    def evictable_bytes(self) -> int:
        """Bytes :meth:`evict_until` could free: every resident page's."""
        return sum(scan.nbytes for scan in self._lru)

    def evict_until(self, need_bytes: int, ctx=None) -> int:
        """Drop resident pages, LRU first, until ``need_bytes`` have
        been freed (or none is left); returns the bytes actually freed.
        Nothing is written: a page is sliced again from its table when
        next read."""
        freed = 0
        if need_bytes <= 0:
            return freed
        lru = self._lru
        while lru and freed < need_bytes:
            scan, _ = lru.popitem(last=False)
            scan.page = None
            self.governor.release(self._lease, scan.nbytes)
            self.evictions += 1
            freed += scan.nbytes
        tracer = self.governor.tracer
        if tracer is not None and freed:
            args = {"freed": freed, "need": need_bytes}
            if ctx is not None:
                tracer.instant(
                    "governor.evict", "governor",
                    ctx.metrics.clock_ticks, args,
                )
            else:
                tracer.instant_now("governor.evict", "governor", args)
        return freed


class PagedRows:
    """A table's rows as governor-managed row-slice pages, of which the
    scan holds one: the page it read last.

    Duck-types the part of the ``list`` interface the scan machinery
    uses — ``len()`` and integer indexing, which is all
    :class:`~repro.exec.arrival.ArrivalModel` needs — plus
    :meth:`slice`, which :class:`~repro.exec.operators.scan.PScan`
    reads arrival runs with.
    """

    __slots__ = (
        "_ctx", "_buffer", "_schema", "_rows", "_page_rows", "_index",
        "page", "nbytes", "epoch",
    )

    def __init__(self, ctx, schema, rows):
        governor = ctx.governor
        self._ctx = ctx
        self._buffer = governor.buffer
        self._schema = schema
        self._page_rows = governor.page_records_for(row_nbytes(schema))
        #: The table's immutable row list; a page is its slice, taken
        #: on first read, so construction admits nothing.
        self._rows = rows
        #: The current page's index (-1 before the first read and
        #: after release), its rows while resident (None once
        #: evicted), its bytes and the accounting epoch that admitted
        #: it (see ``MemoryGovernor.abort_epoch``).
        self._index = -1
        self.page = None
        self.nbytes = 0
        self.epoch = 0

    def __len__(self) -> int:
        return len(self._rows)

    def run_rows(self, most: int) -> int:
        """Most rows one arrival run may take from this table, at most
        ``most``: the rows ``MemoryGovernor.run_nbytes`` holds, and at
        least one page."""
        return min(most, max(
            self._page_rows,
            self._buffer.governor.run_nbytes() // row_nbytes(self._schema),
        ))

    def run_nbytes(self, n_rows: int) -> int:
        """Bytes a run of ``n_rows`` of this table holds past its first
        page, which the buffer pool already accounts."""
        return rows_nbytes(self._schema, max(0, n_rows - self._page_rows))

    def _page(self, page_index: int):
        """The rows of one page.  Another page than the current one
        replaces it in the pool; the current page is reloaded if it was
        evicted, and made the most recent either way."""
        if page_index != self._index:
            buffer = self._buffer
            buffer.release(self)
            start = page_index * self._page_rows
            stop = min(start + self._page_rows, len(self._rows))
            self._index = page_index
            self.nbytes = rows_nbytes(self._schema, stop - start)
            self.epoch = buffer.governor._epoch
            buffer.admit(self, self._ctx)
            self.page = self._rows[start:stop]
        elif self.page is None:
            self._buffer.reload(self, self._ctx)
            start = page_index * self._page_rows
            self.page = self._rows[start:start + self._page_rows]
        else:
            self._buffer.touch(self)
        return self.page

    def __getitem__(self, index: int):
        n_rows = len(self._rows)
        if index < 0:
            index += n_rows
        if not 0 <= index < n_rows:
            raise IndexError(index)
        page_index, offset = divmod(index, self._page_rows)
        return self._page(page_index)[offset]

    def slice(self, start: int, stop: int):
        """Rows ``start`` to ``stop - 1`` as a list, read a page at a
        time — a scan's arrival run takes one page read per page
        touched, not one per row."""
        page_rows = self._page_rows
        taken = []
        while start < stop:
            page_index, offset = divmod(start, page_rows)
            end = min(stop, (page_index + 1) * page_rows)
            taken.extend(
                self._page(page_index)[offset:offset + end - start]
            )
            start = end
        return taken

    def __iter__(self):
        for index in range(len(self._rows)):
            yield self[index]

    def release(self) -> None:
        """Drop the current page (called when the scan is exhausted)."""
        self._buffer.release(self)
        self._index = -1
        self.page = None
