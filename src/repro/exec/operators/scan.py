"""Table scans.

A scan owns its rows and an :class:`~repro.exec.arrival.ArrivalModel`
that says when each row becomes available.  The engine drives scans in
arrival runs (:meth:`take_local`, :meth:`take_paced`, :meth:`push_run`);
everything downstream is reactive.

Scans also host *source-side filters* for the distributed experiments:
a shipped AIP set is installed into the arrival model so that rejected
rows stop consuming simulated link bandwidth (the adaptive Bloomjoin of
Section V-B / VI-C).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import ExecutionError
from repro.data.schema import Schema
from repro.exec.arrival import ArrivalModel, SourceFilter
from repro.exec.context import ExecutionContext
from repro.exec.metrics import seconds_to_ticks
from repro.exec.operators.base import Operator, Row
from repro.exec.pages import ColumnBatch


class PScan(Operator):
    """Physical scan over materialised rows with timed availability."""

    n_inputs = 0

    def __init__(
        self,
        ctx: ExecutionContext,
        op_id: int,
        out_schema: Schema,
        rows: List[Row],
        arrival: Optional[ArrivalModel] = None,
        table_name: str = "",
        site: Optional[str] = None,
        partition_index: Optional[int] = None,
    ):
        label = table_name
        if partition_index is not None:
            label = "%s[%d]" % (table_name, partition_index)
        super().__init__(ctx, op_id, out_schema, [], "Scan(%s)" % label)
        self.rows = rows
        self.arrival = arrival or ArrivalModel.immediate()
        self.table_name = table_name
        self.site = site
        #: Which partition of a fanned-out table this scan serves, or
        #: None for a whole-table scan.
        self.partition_index = partition_index
        self._cursor = 0
        self._pending: Optional[Tuple[float, Row]] = None
        self.exhausted = False

    # -- engine interface -------------------------------------------------

    def prime(self) -> Optional[float]:
        """Compute the first pending tuple; returns its arrival time."""
        return self._advance_cursor()

    def _advance_cursor(self) -> Optional[float]:
        found = self.arrival.next_arrival(self.rows, self._cursor)
        if found is None:
            self._pending = None
            self.exhausted = True
            return None
        next_cursor, when, row = found
        self._cursor = next_cursor
        self._pending = (when, row)
        return when

    @property
    def pending_when(self) -> Optional[float]:
        """Arrival time of the pending tuple, or None when exhausted."""
        return None if self._pending is None else self._pending[0]

    # -- arrival runs (the page path; DESIGN.md section 4) ----------------

    def run_times(self, limit: int) -> List[float]:
        """Arrival times of the pending row and of the rows after it, at
        most ``limit`` in all, for a source whose model is ``local``.
        Nothing is consumed until :meth:`take_local`."""
        self._require_pending()
        n = min(limit, len(self.rows) - self._cursor + 1)
        return self.arrival.local_times(n)

    def take_local(self, count: int, times: List[float]) -> List[Row]:
        """Consume the pending row and the ``count - 1`` rows after it,
        ``times`` being :meth:`run_times`' vector; the row after them
        becomes pending.  Rows are read in index order, once each — a
        buffer-pool table a page slice at a time (``PagedRows.slice``)."""
        first = self._pending[1]
        start = self._cursor
        end = start + count - 1
        rows = self.rows
        taken = [first]
        if count > 1:
            if type(rows) is list:
                taken.extend(rows[start:end])
            else:
                taken.extend(rows.slice(start, end))
        if end < len(rows):
            self._pending = (times[count], rows[end])
            self._cursor = end + 1
            self.arrival.skip_local(count, times[count])
        else:
            self._pending = None
            self._cursor = end
            self.exhausted = True
            self.arrival.skip_local(count - 1, times[count - 1])
        return taken

    def take_paced(
        self,
        now_ticks: int,
        bound_when: Optional[float],
        bound_first: bool,
        limit: int,
    ) -> List[Row]:
        """Consume the pending row plus every further row that has
        arrived by ``now_ticks`` and precedes the next event of another
        source (``bound_when``; ``bound_first`` when that source wins a
        tie), at most ``limit`` rows, computing arrivals one row at a
        time with :meth:`ArrivalModel.next_arrival` — the path for
        sources whose model is not ``local``."""
        self._require_pending()
        taken = [self._pending[1]]
        arrival = self.arrival
        while len(taken) < limit:
            found = arrival.next_arrival(self.rows, self._cursor)
            if found is None:
                self._pending = None
                self.exhausted = True
                return taken
            self._cursor, when, row = found
            if seconds_to_ticks(when) <= now_ticks and (
                bound_when is None
                or when < bound_when
                or (when == bound_when and not bound_first)
            ):
                taken.append(row)
                continue
            self._pending = (when, row)
            return taken
        self._advance_cursor()
        return taken

    def push_run(self, rows: List[Row], seq: Optional[List[int]]) -> None:
        """Push one run's rows of this source as one
        :class:`ColumnBatch` through the operators' page kernels.  The
        page is row-born: the row list is wrapped, not transposed, and
        columns materialise as kernels touch them."""
        n = len(rows)
        counters = self.ctx.metrics.counters(self.op_id)
        counters.tuples_in += n
        self.ctx.charge_events_op(self.op_id, n, self.ctx.cost_model.scan_read)
        page = ColumnBatch.from_rows(rows, len(self.out_schema), seq)
        page = self.passes_filters_page(page, 0)
        self._page_stats(n, page.n_rows)
        self.emit_page(page)

    def _require_pending(self) -> None:
        if self._pending is None:
            # Not an assert: under ``python -O`` a bare assert vanishes
            # and a driver bug would silently drop rows.
            raise ExecutionError(
                "%s driven with no pending tuple" % self.name
            )

    # -- source-side filters (distributed AIP) ----------------------------

    def install_source_filter(
        self, attr_name: str, summary, activation_time: float
    ) -> SourceFilter:
        key_index = self.out_schema.index_of(attr_name)
        return self.arrival.install_filter(key_index, summary, activation_time)

    # -- dataflow ----------------------------------------------------------

    def push_page(self, page, port: int = 0) -> None:
        raise ExecutionError("%s has no inputs" % self.name)

    def finish(self, port: int = 0) -> None:
        """Called by the engine when the source is exhausted."""
        release = getattr(self.rows, "release", None)
        if release is not None:
            # Paged rows under a memory governor: nothing re-reads an
            # exhausted scan, so its buffer-pool pages drop now.
            release()
        self.finish_output()
