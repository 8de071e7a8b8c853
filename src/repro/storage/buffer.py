"""The buffer manager: pinned pages, LRU eviction, paged scan rows.

Frames hold table pages: slices of a table's immutable row list,
``rows[start:stop]``.  A frame is *resident* while its slice is in
memory and *evicted* once the slice has been dropped.  Table pages are
clean — the catalog's row list always holds their rows — so eviction
writes nothing: :meth:`BufferManager.pin` reloads an evicted frame by
slicing it again from the table's rows (the same tuple objects),
charged as one page read.  Only spools (:mod:`repro.storage.spill`)
write to disk.  Pinned frames are never evicted — pin spans are short
(one page slice) so the pool can always make progress.

:class:`PagedRows` is the engine-facing facade: a read-only sequence
(``len`` + indexing, which is all the arrival models need) over a
table's pages, so scans stream pages under the governor's budget.  A
page is weighed as its rows weigh everywhere else
(:func:`repro.common.sizing.rows_nbytes`).  It is lazy and
forward-only: a page is admitted to the pool when a scan first reads
it, and released (bytes returned) once the scan moves past it.  A read
behind the cursor admits the page again, so any access pattern stays
correct; only forward scans are cheap.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.common.sizing import row_nbytes, rows_nbytes


class Frame:
    """One buffer-pool slot: the page ``table_rows[start:stop]``."""

    __slots__ = (
        "frame_id", "table_rows", "start", "stop", "payload", "nbytes",
        "pins", "epoch",
    )

    def __init__(self, frame_id: int, table_rows: List, start: int,
                 stop: int, nbytes: int, epoch: int):
        self.frame_id = frame_id
        self.table_rows = table_rows
        self.start = start
        self.stop = stop
        #: The page's rows while resident; None once evicted.
        self.payload: Optional[List] = table_rows[start:stop]
        self.nbytes = nbytes
        self.pins = 0
        #: Accounting epoch that admitted the frame (see
        #: ``MemoryGovernor.abort_epoch``).
        self.epoch = epoch

    @property
    def resident(self) -> bool:
        return self.payload is not None


class BufferManager:
    """LRU pool of page frames accounted on one governor lease.

    The lease also carries the rows an arrival run holds past its
    first page while the run is pushed (:meth:`hold`), so the bytes a
    run keeps alive sit inside the budget."""

    def __init__(self, governor):
        self.governor = governor
        self._lease = governor.lease("buffer-pool")
        self._next_frame = 0
        #: frame_id -> Frame for every *resident* frame, in LRU order
        #: (oldest first).
        self._lru: "OrderedDict[int, Frame]" = OrderedDict()
        #: Every live frame, resident or evicted (epoch rollback needs
        #: to reach evicted frames too).
        self._all: dict = {}
        self.evictions = 0
        self.reloads = 0

    @property
    def resident_bytes(self) -> int:
        return self._lease.nbytes

    # -- frame lifecycle -------------------------------------------------

    def add(self, table_rows: List, start: int, stop: int, nbytes: int,
            ctx=None) -> Frame:
        """Admit the page ``table_rows[start:stop]`` as a resident
        frame."""
        self._next_frame += 1
        frame = Frame(
            self._next_frame, table_rows, start, stop, nbytes,
            self.governor._epoch,
        )
        self.governor.request(self._lease, nbytes, ctx)
        self._lru[frame.frame_id] = frame
        self._all[frame.frame_id] = frame
        return frame

    def pin(self, frame: Frame, ctx=None) -> List:
        """Return the frame's rows, slicing them again from the table
        if evicted (charged as one page read); the frame cannot be
        evicted until the matching :meth:`unpin`."""
        if frame.payload is None:
            self.governor.charge_spill(ctx, frame.nbytes)
            self.governor.request(self._lease, frame.nbytes, ctx)
            frame.payload = frame.table_rows[frame.start:frame.stop]
            self.reloads += 1
            self._lru[frame.frame_id] = frame
        else:
            self._lru.move_to_end(frame.frame_id)
        frame.pins += 1
        return frame.payload

    def unpin(self, frame: Frame) -> None:
        if frame.pins <= 0:
            raise RuntimeError("unpin of a frame that is not pinned")
        frame.pins -= 1

    def release(self, frame: Frame) -> None:
        """Drop the frame entirely."""
        if frame.payload is not None:
            frame.payload = None
            self.governor.release(self._lease, frame.nbytes)
            self._lru.pop(frame.frame_id, None)
        self._all.pop(frame.frame_id, None)

    def release_epoch(self, epoch: int) -> None:
        """Drop every frame admitted in or after ``epoch`` (the
        governor's rollback of a failed batch)."""
        for frame in [
            f for f in self._all.values() if f.epoch >= epoch
        ]:
            frame.pins = 0  # its owner is dead; nothing will unpin
            self.release(frame)

    # -- arrival runs -----------------------------------------------------

    def hold(self, nbytes: int, ctx=None) -> None:
        """Account ``nbytes`` of rows a run holds outside any frame;
        the matching :meth:`unhold` returns them."""
        self.governor.request(self._lease, nbytes, ctx)

    def unhold(self, nbytes: int) -> None:
        self.governor.release(self._lease, nbytes)

    # -- eviction ---------------------------------------------------------

    def evictable_bytes(self) -> int:
        """Bytes :meth:`evict_until` could free: the unpinned resident
        frames'."""
        return sum(
            frame.nbytes for frame in self._lru.values() if not frame.pins
        )

    def evict_until(self, need_bytes: int, ctx=None) -> int:
        """Drop unpinned resident frames, LRU first, until
        ``need_bytes`` have been freed (or nothing evictable remains);
        returns the bytes actually freed.  Nothing is written: a page
        is sliced again from its table when next pinned."""
        freed = 0
        if need_bytes <= 0:
            return freed
        for frame_id in list(self._lru):
            if freed >= need_bytes:
                break
            frame = self._lru[frame_id]
            if frame.pins:
                continue
            frame.payload = None
            del self._lru[frame_id]
            self.governor.release(self._lease, frame.nbytes)
            self.evictions += 1
            freed += frame.nbytes
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
    """A table's rows as governor-managed row-slice pages, admitted
    lazily and dropped once a scan has passed them.

    Duck-types the part of the ``list`` interface the scan machinery
    uses — ``len()`` and integer indexing, which is all
    :class:`~repro.exec.arrival.ArrivalModel` needs — plus
    :meth:`slice`, which :class:`~repro.exec.operators.scan.PScan`
    reads arrival runs with.
    """

    __slots__ = (
        "_ctx", "_buffer", "_schema", "_rows", "_frames", "_page_rows",
        "_cursor",
    )

    def __init__(self, ctx, schema, rows, page_rows: Optional[int] = None):
        governor = ctx.governor
        self._ctx = ctx
        self._buffer = governor.buffer
        self._schema = schema
        self._page_rows = page_rows or governor.page_records_for(
            row_nbytes(schema)
        )
        #: The table's immutable row list; a page is its slice, taken
        #: on first read, so construction admits nothing.
        self._rows = rows
        #: One slot per page: its frame while built, None before the
        #: first read and after release.
        self._frames = [None] * -(-len(rows) // self._page_rows)
        #: The page last read.  Every live frame is at or past it:
        #: reading forward releases the pages in between.
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._rows)

    def run_rows(self, most: int) -> int:
        """Most rows one arrival run may take from this table, at most
        ``most``: the rows ``MemoryGovernor.run_nbytes`` holds, and at
        least one page; ``most`` without a budget."""
        limit = self._buffer.governor.run_nbytes()
        if limit is None:
            return most
        return min(
            most, max(self._page_rows, limit // row_nbytes(self._schema))
        )

    def run_nbytes(self, n_rows: int) -> int:
        """Bytes a run of ``n_rows`` of this table holds past its first
        page, which the buffer pool already accounts."""
        return rows_nbytes(self._schema, max(0, n_rows - self._page_rows))

    def _page(self, page_index: int):
        """The rows of one page, pinned and unpinned once (each read
        pins, so reload charges and LRU recency follow the reads).  A
        page not yet built (or released) is admitted to the buffer
        pool; moving forward releases the pages behind, which no scan
        reads again."""
        frames = self._frames
        buffer = self._buffer
        for behind in range(self._cursor, page_index):
            if frames[behind] is not None:
                buffer.release(frames[behind])
                frames[behind] = None
        self._cursor = page_index
        frame = frames[page_index]
        if frame is None:
            start = page_index * self._page_rows
            stop = min(start + self._page_rows, len(self._rows))
            frame = frames[page_index] = buffer.add(
                self._rows, start, stop,
                rows_nbytes(self._schema, stop - start), self._ctx,
            )
        rows = buffer.pin(frame, self._ctx)
        buffer.unpin(frame)
        return rows

    def __getitem__(self, index: int):
        n_rows = len(self._rows)
        if index < 0:
            index += n_rows
        if not 0 <= index < n_rows:
            raise IndexError(index)
        page_index, offset = divmod(index, self._page_rows)
        return self._page(page_index)[offset]

    def slice(self, start: int, stop: int):
        """Rows ``start`` to ``stop - 1`` as a list, with one pin per
        page touched — a scan's arrival run reads a page slice at a
        time, not a pin per row."""
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
        """Drop every page (called when the scan is exhausted)."""
        for index, frame in enumerate(self._frames):
            if frame is not None:
                self._buffer.release(frame)
                self._frames[index] = None
