"""The memory governor: one process-wide budget for engine state.

Admission control (:mod:`repro.service.admission`) *estimates* what a
query will buffer; the governor *enforces* what actually gets buffered.
Every byte-holding component — the buffer pool's table pages, each
stateful operator's hash state, spill spool write buffers — accounts
through a :class:`Lease`, and the governor keeps the aggregate.

The lease protocol:

* ``lease = governor.lease(label)`` — open an account;
* ``governor.request(lease, nbytes, ctx)`` — admit bytes.  If the
  request would push the aggregate past the budget the governor first
  **reclaims**: it evicts the scans' buffer-pool pages (cheapest —
  clean table pages are dropped, and sliced again from the table when
  next read), then asks the registered spill handlers — each stateful
  operator's partition ledger and each spool's tail page, most
  spillable first — to move state to disk.  The request itself always
  succeeds: correctness never depends on memory, only residency does.
  ``ctx`` is the execution context whose virtual clock pays for any
  spill I/O the reclaim performs;
* ``governor.release(lease, nbytes)`` / ``lease.close()`` — return
  bytes.

A governor always has a budget.  Queries run entirely without one when
no memory budget is requested, which keeps the un-governed hot path
bit-identical to the pre-storage engine; a budget nothing reaches
(``1 << 40``) never reclaims, so it only measures residency.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.storage.disk import DiskBackend
from repro.storage.spill import Spool

#: Page capacity, in rows, of every paged component, so budgets
#: relate to one page-size granularity.  Small enough that modest
#: budgets hold several pages; large enough that per-page overheads
#: amortise.
PAGE_ROWS = 256


class Lease:
    """One component's byte account with the governor."""

    __slots__ = ("governor", "label", "nbytes", "seq", "epoch", "closed")

    def __init__(self, governor: "MemoryGovernor", label: str, seq: int,
                 epoch: int):
        self.governor = governor
        self.label = label
        self.nbytes = 0
        self.seq = seq
        #: Which accounting epoch opened this lease — the service layer
        #: rolls a failed batch's epoch back wholesale.
        self.epoch = epoch
        self.closed = False

    def close(self) -> None:
        """Return every remaining byte and retire the lease."""
        if not self.closed:
            if self.nbytes:
                self.governor.release(self, self.nbytes)
            self.closed = True

    def __repr__(self) -> str:
        return "Lease(%r, %d bytes)" % (self.label, self.nbytes)


class MemoryGovernor:
    """Holds the process-wide state budget and hands out leases."""

    def __init__(self, budget: int, spill_dir: Optional[str] = None):
        if budget < 0:
            raise ValueError("memory budget must be >= 0 bytes")
        from repro.storage.buffer import BufferManager

        self.budget = budget
        self.resident_bytes = 0
        self.peak_resident_bytes = 0
        #: Grows that stayed over budget even after a full reclaim pass
        #: (nothing left to evict or spill — e.g. a zero budget, or a
        #: single page larger than the whole budget).
        self.over_budget_events = 0
        self._spillables: List = []
        self._leases: List[Lease] = []
        self._lease_seq = 0
        self._epoch = 0
        self._reclaiming = False
        self._window_state_peak = 0
        self.closed = False
        #: Trace collector shared with the run's contexts, or None.
        #: Governor hook sites fire through this (not a ctx) because
        #: leases outlive any single query's context.
        self.tracer = None
        #: Where spools write; table pages never reach it.
        self.backend = DiskBackend(spill_dir)
        self.buffer = BufferManager(self)

    #: Target page payload size; pages are capped at :data:`PAGE_ROWS`
    #: records but also at roughly this many bytes so one page of wide
    #: rows never dwarfs a small budget.
    PAGE_NBYTES_TARGET = 16384

    #: Share of a finite budget that one arrival run's rows may hold.
    #: The run is accounted on the buffer pool's lease while it is
    #: pushed (``BufferManager.hold``), so a quarter leaves the rest of
    #: the budget to operator state and pages.
    RUN_BUDGET_FRACTION = 0.25

    def page_nbytes(self) -> int:
        """Payload bytes one page may hold: :data:`PAGE_NBYTES_TARGET`,
        shrunk so a single page stays a small fraction of the budget (a
        page is the indivisible residency granule — reclaim cannot
        split one)."""
        return min(self.PAGE_NBYTES_TARGET, max(1024, self.budget // 8))

    def page_records_for(self, record_nbytes: int) -> int:
        """How many records of ``record_nbytes`` one page should hold:
        the row cap, shrunk to :meth:`page_nbytes`."""
        return max(
            1, min(PAGE_ROWS, self.page_nbytes() // max(record_nbytes, 1))
        )

    def run_nbytes(self) -> int:
        """Bytes one arrival run's rows may hold: the
        :data:`RUN_BUDGET_FRACTION` of the budget."""
        return int(self.budget * self.RUN_BUDGET_FRACTION)

    # -- leases ---------------------------------------------------------

    def lease(self, label: str) -> Lease:
        self._lease_seq += 1
        lease = Lease(self, label, self._lease_seq, self._epoch)
        self._leases.append(lease)
        if self.tracer is not None:
            # Leases open during operator construction, where no query
            # clock is at hand; stamp with the trace's high-water mark.
            self.tracer.instant_now(
                "governor.lease", "governor",
                {"label": label, "seq": lease.seq},
            )
        return lease

    def _pool_nbytes(self) -> int:
        """Bytes held by the buffer pool (base-table pages and the
        arrival run being pushed)."""
        return self.buffer.resident_bytes

    def request(self, lease: Lease, nbytes: int, ctx=None) -> None:
        """Admit ``nbytes`` onto ``lease``, reclaiming first if the
        aggregate would cross the budget."""
        if nbytes <= 0:
            if nbytes < 0:
                self.release(lease, -nbytes)
            return
        budget = self.budget
        if not self._reclaiming and self.resident_bytes + nbytes > budget:
            self._reclaim(self.resident_bytes + nbytes - budget, ctx)
            if self.resident_bytes + nbytes > budget:
                self.over_budget_events += 1
                if self.tracer is not None:
                    args = {
                        "lease": lease.label,
                        "resident": self.resident_bytes + nbytes,
                        "budget": budget,
                    }
                    if ctx is not None:
                        self.tracer.instant(
                            "governor.over_budget", "governor",
                            ctx.metrics.clock_ticks, args,
                        )
                    else:
                        self.tracer.instant_now(
                            "governor.over_budget", "governor", args,
                        )
        lease.nbytes += nbytes
        self.resident_bytes += nbytes
        if self.resident_bytes > self.peak_resident_bytes:
            self.peak_resident_bytes = self.resident_bytes
        state = self.resident_bytes - self._pool_nbytes()
        if state > self._window_state_peak:
            self._window_state_peak = state

    def release(self, lease: Lease, nbytes: int) -> None:
        if nbytes <= 0:
            return
        lease.nbytes -= nbytes
        self.resident_bytes -= nbytes

    def room(self) -> int:
        """Bytes a lease could still grow by within the budget once a
        reclaim has dropped every table page and every spill handler
        has spilled all it holds."""
        reclaimable = self.buffer.evictable_bytes() + sum(
            handler.spillable_nbytes() for handler in self._spillables
        )
        return self.budget - self.resident_bytes + reclaimable

    # -- reclamation -----------------------------------------------------

    def register_spillable(self, handler) -> None:
        """Register a spill handler: a stateful operator's
        :class:`~repro.storage.spill.PartitionLedger`, or a spool's
        tail page.  The handler exposes ``spillable_nbytes()`` and
        ``spill(need_bytes, ctx) -> freed_bytes``."""
        self._spillables.append(handler)

    def unregister_spillable(self, handler) -> None:
        try:
            self._spillables.remove(handler)
        except ValueError:
            pass

    def _reclaim(self, need_bytes: int, ctx) -> None:
        """Free at least ``need_bytes`` of residency, cheapest first.

        Re-entrant grows performed *by* the reclaim (spool write
        buffers filling while an operator spills) skip further
        reclamation — the spill path itself is monotonically freeing.
        """
        self._reclaiming = True
        try:
            freed = self.buffer.evict_until(need_bytes, ctx)
            if freed >= need_bytes:
                return
            # Largest holder first; registration order breaks ties so
            # the victim sequence is deterministic.  Iterate a snapshot
            # — spilling operators open fresh spools, which register.
            ranked = sorted(
                enumerate(list(self._spillables)),
                key=lambda pair: (-pair[1].spillable_nbytes(), pair[0]),
            )
            for _seq, handler in ranked:
                if freed >= need_bytes:
                    break
                if handler not in self._spillables:
                    continue  # retired by an earlier victim's spill
                freed += handler.spill(need_bytes - freed, ctx)
        finally:
            self._reclaiming = False

    # -- spill I/O charging ---------------------------------------------

    def charge_spill(self, ctx, nbytes: int) -> None:
        """Bill one page move of ``nbytes`` to the run's virtual clock
        and spill counters."""
        if ctx is None:
            return
        cm = ctx.cost_model
        ctx.charge_events(1, cm.spill_page_io)
        ctx.charge(nbytes * cm.spill_byte_io)
        ctx.metrics.spill_bytes += nbytes
        ctx.metrics.spill_events += 1
        if self.tracer is not None:
            self.tracer.instant(
                "governor.spill", "governor", ctx.metrics.clock_ticks,
                {"bytes": nbytes, "pages": 1},
            )

    # -- observation ------------------------------------------------------

    def take_window_state_peak(self) -> int:
        """Peak *operator-state* residency (total minus the buffer
        pool's table pages and run rows) since the previous call.  The
        service layer reads one per dispatched batch to reconcile
        admission estimates — which model operator state only, so table
        pages must not inflate the comparison."""
        peak = self._window_state_peak
        self._window_state_peak = self.resident_bytes - self._pool_nbytes()
        return peak

    def snapshot(self) -> Dict:
        """What the governor has observed so far — the ``storage``
        section of run records and service reports."""
        return {
            "budget": self.budget,
            "peak_resident_bytes": self.peak_resident_bytes,
            "over_budget_events": self.over_budget_events,
            "spilled_bytes": self.backend.bytes_written,
            "evictions": self.buffer.evictions,
            "reloads": self.buffer.reloads,
        }

    # -- epochs (batch-scoped rollback) -----------------------------------

    def begin_epoch(self) -> int:
        """Open a new accounting epoch; everything leased or admitted
        from now on can be rolled back wholesale with
        :meth:`abort_epoch`.  Also prunes retired leases."""
        self._leases = [lease for lease in self._leases if not lease.closed]
        self._epoch += 1
        return self._epoch

    def abort_epoch(self, epoch: int) -> None:
        """Roll back a failed batch: close every lease opened in (or
        after) ``epoch``, drop its spill handlers and delete its spools'
        pages, release the table pages it admitted, and discard the
        observation windows — dead operators must not hold residency,
        disk, or serve as reclaim victims, or poison the next successful
        batch's reconciliation.  With no page left on disk the spill
        directory goes too (the next spill makes a fresh one)."""
        handlers, self._spillables = self._spillables, []
        for handler in handlers:
            lease = getattr(handler, "_lease", None)
            if lease is None or lease.epoch < epoch:
                self._spillables.append(handler)
            elif isinstance(handler, Spool):
                handler.discard()
        self.backend.remove_dir_if_empty()
        self.buffer.release_epoch(epoch)
        for lease in self._leases:
            if lease.epoch >= epoch:
                lease.close()
        self._leases = [lease for lease in self._leases if not lease.closed]
        self._window_state_peak = self.resident_bytes - self._pool_nbytes()

    def close(self) -> None:
        """Tear down the spill directory; leases become inert."""
        self.closed = True
        self._spillables = []
        self.backend.close()

    def __repr__(self) -> str:
        return "MemoryGovernor(budget=%r, resident=%d, peak=%d)" % (
            self.budget, self.resident_bytes, self.peak_resident_bytes,
        )
