"""Paged storage under a process-wide memory governor.

The engine's working sets — base-table rows streamed by scans, the
hash state of stateful operators, spilled partition runs — all live in
Python memory.  This package bounds that memory:

* :mod:`repro.storage.disk` — the spill backend: pickled spool pages
  as extents of one file under a private temp directory, the file
  removed when its last page is, the directory on close;
* :mod:`repro.storage.buffer` — :class:`PagedRows`, the sequence
  facade scans stream instead of materialised row lists, holding one
  table page per scan: a slice of the table's rows, taken when the scan
  first reads it and weighed through :mod:`repro.common.sizing`; and
  the **buffer manager**, an LRU of the scans whose page is resident,
  which evicts by dropping clean pages (a reload slices them again);
* :mod:`repro.storage.spill` — the **partition ledger** each governed
  stateful operator spills Grace-style hash partitions through, and
  the append-only paged **spools** it writes them to;
* :mod:`repro.storage.governor` — the :class:`MemoryGovernor` holding
  the process-wide state budget; components account through leases,
  and a grow that would cross the budget first reclaims (buffer-pool
  eviction, then operator spills, largest lease first).

With no memory budget (``memory_budget=None``) no governor is built,
so none of this is instantiated and execution is bit-identical to the
un-governed engine; with a budget, results are identical while governor-observed
resident state stays under budget, and spill I/O is charged to the
virtual clock as ``spill_bytes``/``spill_events``.
"""

from repro.storage.buffer import BufferManager, PagedRows
from repro.storage.disk import DiskBackend
from repro.storage.governor import PAGE_ROWS, Lease, MemoryGovernor
from repro.storage.spill import N_SPILL_PARTITIONS, Spool, spill_partition

__all__ = [
    "BufferManager",
    "DiskBackend",
    "Lease",
    "MemoryGovernor",
    "N_SPILL_PARTITIONS",
    "PAGE_ROWS",
    "PagedRows",
    "Spool",
    "spill_partition",
]
