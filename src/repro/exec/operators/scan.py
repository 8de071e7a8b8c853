"""Table scans.

A scan owns its rows and an :class:`~repro.exec.arrival.ArrivalModel`
that says when each row becomes available.  The engine drives scans via
:meth:`advance`; everything downstream is reactive.

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

    def advance(self) -> Optional[float]:
        """Move to the next pending tuple; returns its arrival time."""
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

    def emit_pending(self) -> None:
        """Push the pending tuple into the consumer chain."""
        if self._pending is None:
            # Not an assert: under ``python -O`` a bare assert vanishes
            # and a driver bug would silently drop rows.
            raise ExecutionError(
                "%s driven with no pending tuple" % self.name
            )
        _, row = self._pending
        self._pending = None
        counters = self.ctx.metrics.counters(self.op_id)
        counters.tuples_in += 1
        self.ctx.charge_op(self.op_id, self.ctx.cost_model.scan_read)
        if not self.passes_filters(row, 0):
            return
        self.emit(row)

    def emit_pending_batch(
        self,
        now_ticks: int,
        boundary_when: Optional[float] = None,
        boundary_first: bool = False,
    ) -> Optional[float]:
        """Push the pending tuple plus every further row arriving up to
        the cross-scan boundary (see ``ArrivalModel.next_batch``) as one
        :class:`ColumnBatch` through the operators' page kernels;
        returns the next pending arrival time, or None when the source
        is exhausted.  The page is row-born: the run's row list is
        wrapped, not transposed, and columns materialise as kernels
        touch them."""
        if self._pending is None:
            raise ExecutionError(
                "%s driven with no pending tuple" % self.name
            )
        _, first = self._pending
        cursor, more, pending = self.arrival.next_batch(
            self.rows, self._cursor, now_ticks, boundary_when, boundary_first
        )
        self._cursor = cursor
        if pending is None:
            self._pending = None
            self.exhausted = True
            nxt = None
        else:
            self._pending = pending
            nxt = pending[0]
        rows = [first]
        rows.extend(more)
        counters = self.ctx.metrics.counters(self.op_id)
        counters.tuples_in += len(rows)
        self.ctx.charge_events_op(self.op_id, len(rows), self.ctx.cost_model.scan_read)
        page = ColumnBatch.from_rows(rows, len(self.out_schema))
        page = self.passes_filters_page(page, 0)
        self._page_stats(len(rows), page.n_rows)
        self.emit_page(page)
        return nxt

    # -- source-side filters (distributed AIP) ----------------------------

    def install_source_filter(
        self, attr_name: str, summary, activation_time: float
    ) -> SourceFilter:
        key_index = self.out_schema.index_of(attr_name)
        return self.arrival.install_filter(key_index, summary, activation_time)

    # -- dataflow ----------------------------------------------------------

    def push(self, row: Row, port: int = 0) -> None:
        raise AssertionError("scans have no inputs")

    def finish(self, port: int = 0) -> None:
        """Called by the engine when the source is exhausted."""
        release = getattr(self.rows, "release", None)
        if release is not None:
            # Paged rows under a memory governor: nothing re-reads an
            # exhausted scan, so its buffer-pool pages drop now.
            release()
        self.finish_output()
