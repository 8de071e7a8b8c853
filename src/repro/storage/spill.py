"""Spill spools: append-only paged record runs on the spill backend.

Stateful operators shed hash state Grace-style: keys hash into
:data:`N_SPILL_PARTITIONS` fixed partitions, and a spilled partition's
records live in :class:`Spool` runs — an in-memory tail page (accounted
against the governor) that flushes to one pickled page file whenever it
fills.  Replay streams the pages back one at a time, so completion
processing never re-materialises a whole partition set at once.

Partition placement uses :func:`repro.common.hashing.stable_key`, so
which keys spill together is deterministic across processes — a
requirement for the reproducible benchmark cells CI gates on.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.common.hashing import stable_key

#: Grace-style fan-out: enough that one partition of an over-budget
#: state comfortably fits back in memory at recursion depth 1.
N_SPILL_PARTITIONS = 16


def _slow_partition(key, n_partitions: int) -> int:
    """:func:`spill_partition` off the plain-int path: a tuple of ints
    is its own stable key (``stable_key`` rebuilds an equal tuple), so
    it hashes directly; anything else goes through ``stable_key``."""
    if type(key) is tuple:
        for value in key:
            if type(value) is not int:
                return hash(stable_key(key)) % n_partitions
        return hash(key) % n_partitions
    return hash(stable_key(key)) % n_partitions


def spill_partition(key, n_partitions: int = N_SPILL_PARTITIONS) -> int:
    """Deterministic partition id of one state key:
    ``hash(stable_key(key)) % n_partitions``.  ``stable_key`` is the
    identity on an ``int``, the common key type, so one hashes
    directly."""
    if type(key) is int:
        return hash(key) % n_partitions
    return _slow_partition(key, n_partitions)


def spill_partitions(keys, n_partitions: int = N_SPILL_PARTITIONS) -> List[int]:
    """:func:`spill_partition` of every key, in order."""
    return [
        hash(key) % n_partitions if type(key) is int
        else _slow_partition(key, n_partitions)
        for key in keys
    ]


def pick_spill_victim(weights, spilled) -> "int | None":
    """The spill victim policy every stateful operator shares: the
    heaviest still-resident partition, ties broken toward the lowest
    id (deterministic); None once nothing spillable remains.

    ``weights[pid]`` is the partition's resident weight (rows, groups
    or bytes — only relative order matters); ``spilled`` holds the
    pids already on disk.
    """
    best, best_weight = None, 0
    for pid, weight in enumerate(weights):
        if pid in spilled or weight <= best_weight:
            continue
        best, best_weight = pid, weight
    return best


class Spool:
    """One partition generation's records, paged onto the backend."""

    __slots__ = (
        "_ctx", "_governor", "_record_nbytes", "_page_records",
        "_open", "_pages", "_flushed_records", "_lease",
    )

    def __init__(self, ctx, governor, record_nbytes: int, label: str = ""):
        self._ctx = ctx
        self._governor = governor
        self._record_nbytes = record_nbytes
        self._page_records = governor.page_records_for(record_nbytes)
        #: The unflushed tail page (resident, governor-accounted).
        self._open: List = []
        #: Flushed pages: ``(backend_page_id, n_records, nbytes)``.
        self._pages: List[Tuple[int, int, int]] = []
        self._flushed_records = 0
        self._lease = governor.lease("spool:%s" % label)
        # The unflushed tail is resident state the governor may flush
        # out under pressure, so the spool itself is a spill target.
        governor.register_spillable(self)

    @property
    def n_records(self) -> int:
        return self._flushed_records + len(self._open)

    @property
    def resident_nbytes(self) -> int:
        return len(self._open) * self._record_nbytes

    def spillable_nbytes(self) -> int:
        """Reclaim protocol: the tail page can always be written out."""
        return len(self._open) * self._record_nbytes

    def spill(self, need_bytes: int, ctx) -> int:
        freed = len(self._open) * self._record_nbytes
        self.flush()
        return freed

    def append(self, record) -> None:
        """Add one record; flushes a full tail page to the backend."""
        self._governor.request(self._lease, self._record_nbytes, self._ctx)
        self._open.append(record)
        if len(self._open) >= self._page_records:
            self.flush()

    def extend(self, records: List) -> None:
        """Append ``records`` in order with one lease request per
        tail-page chunk, flushing each full page.  For spill transfers,
        which run inside a governor reclaim: a request there never
        reclaims again, so the chunked requests leave the accounting,
        the flushes and the peaks exactly as per-record appends
        would."""
        page_records = self._page_records
        at, n = 0, len(records)
        while at < n:
            take = min(n - at, page_records - len(self._open))
            self._governor.request(
                self._lease, take * self._record_nbytes, self._ctx
            )
            self._open.extend(records[at:at + take])
            at += take
            if len(self._open) >= page_records:
                self.flush()

    def flush(self) -> None:
        """Write the tail page out and drop its residency."""
        if not self._open:
            return
        nbytes = len(self._open) * self._record_nbytes
        page_id = self._governor.backend.write(self._open)
        self._governor.charge_spill(self._ctx, nbytes)
        self._pages.append((page_id, len(self._open), nbytes))
        self._flushed_records += len(self._open)
        self._governor.release(self._lease, nbytes)
        self._open = []

    def records(self):
        """Stream every record in append order, one page resident at a
        time.  Safe to call repeatedly — each pass re-reads the pages
        (and pays the spill-read charges again): state is streamed,
        never re-materialised wholesale.
        """
        lease = self._lease
        for page_id, _count, nbytes in self._pages:
            payload = self._governor.backend.read(page_id)
            self._governor.charge_spill(self._ctx, nbytes)
            self._governor.request(lease, nbytes, self._ctx)
            try:
                yield from payload
            finally:
                self._governor.release(lease, nbytes)
        yield from list(self._open)

    def discard(self) -> None:
        """Delete the run: backend pages, tail-page residency and the
        lease (a service-lifetime governor prunes only closed ones)."""
        self._governor.unregister_spillable(self)
        for page_id, _count, _nbytes in self._pages:
            self._governor.backend.delete(page_id)
        self._pages = []
        self._flushed_records = 0
        self._open = []
        self._lease.close()

    def __repr__(self) -> str:
        return "Spool(%d records, %d pages)" % (
            self.n_records, len(self._pages),
        )
