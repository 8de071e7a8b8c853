"""Grace spill for the stateful operators: one partition ledger per
operator, and the paged record runs it writes.

A governed stateful operator's keys hash into :data:`N_SPILL_PARTITIONS`
fixed partitions.  Its :class:`PartitionLedger` is the governor's spill
handler for it: it keeps each partition's resident count and key index,
picks victims and moves whole partitions into :class:`Spool` runs — an
in-memory tail page (accounted against the governor) that flushes
whenever it fills, as one page of the governor's spill backend (an
extent of the backend's one spill file).  Replay streams the pages
back one at a time, so completion processing never re-materialises a
whole partition set at once.

Partition placement uses :func:`repro.common.hashing.stable_key`, so
which keys spill together is deterministic across processes — a
requirement for the reproducible benchmark cells CI gates on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Tuple

from repro.common.hashing import stable_key

#: Grace-style fan-out: enough that one partition of an over-budget
#: state comfortably fits back in memory at recursion depth 1.
N_SPILL_PARTITIONS = 16


def _slow_partition(key) -> int:
    """:func:`spill_partition` off the plain-int path: a tuple of ints
    is its own stable key (``stable_key`` rebuilds an equal tuple), so
    it hashes directly; anything else goes through ``stable_key``."""
    if type(key) is tuple:
        for value in key:
            if type(value) is not int:
                return hash(stable_key(key)) % N_SPILL_PARTITIONS
        return hash(key) % N_SPILL_PARTITIONS
    return hash(stable_key(key)) % N_SPILL_PARTITIONS


def spill_partition(key) -> int:
    """Deterministic partition id of one state key:
    ``hash(stable_key(key)) % N_SPILL_PARTITIONS``.  ``stable_key`` is
    the identity on an ``int``, the common key type, so one hashes
    directly."""
    if type(key) is int:
        return hash(key) % N_SPILL_PARTITIONS
    return _slow_partition(key)


def spill_partitions(keys) -> List[int]:
    """:func:`spill_partition` of every key, in order."""
    return [
        hash(key) % N_SPILL_PARTITIONS if type(key) is int
        else _slow_partition(key)
        for key in keys
    ]


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


class PartitionLedger:
    """One governed stateful operator's Grace bookkeeping, registered
    with the governor as its spill handler.

    Per input side (``ports``) and partition the ledger holds the
    resident record count, ``counts[port][pid]``, and the keys the
    operator's table holds there in insertion order, ``keys[port][pid]``
    (a list, or with ``index=dict`` an ordered set that can drop a key).
    The operator's kernels bind those lists to locals and keep them
    current as they insert.  A reclaim moves whole partitions, heaviest
    first, into fresh runs; the operator supplies the hook that pops one
    partition's records out of its own table,
    ``op._pop_partition(port, keys) -> records``.

    ``runs`` names one spilled partition's runs in creation order as
    ``(name, record_nbytes)``: the first ``ports`` receive the records a
    spill moves out of the table, one per side; the last ``ports`` take
    the rows that arrive for the partition afterwards (the same runs
    when there are only ``ports`` of them).  ``spilled`` maps each
    spilled pid to its runs, in that order.
    """

    __slots__ = (
        "_op", "_lease", "_label", "_runs", "_nbytes", "_index",
        "counts", "keys", "spilled", "chunk_rows", "_replaying",
    )

    def __init__(self, op, runs, ports: int = 1, index=list):
        self._op = op
        self._lease = op._lease
        self._label = "%s#%d" % (op.name, op.op_id)
        self._runs = tuple(runs)
        #: Record bytes per side: what a count of one weighs.
        self._nbytes = tuple(nbytes for _name, nbytes in self._runs[:ports])
        self._index = index
        self.counts = tuple([0] * N_SPILL_PARTITIONS for _ in range(ports))
        self.keys = tuple(
            [index() for _ in range(N_SPILL_PARTITIONS)]
            for _ in range(ports)
        )
        self.spilled: Dict[int, Tuple[Spool, ...]] = {}
        #: Rows per lease request in a page kernel: one governor page
        #: of the widest side's records.
        self.chunk_rows = op.ctx.governor.page_records_for(max(self._nbytes))
        self._replaying = False
        op.ctx.governor.register_spillable(self)

    @classmethod
    def open(cls, op, runs, ports: int = 1, index=list):
        """``op``'s ledger, or None when ``op`` runs ungoverned."""
        if op._lease is None:
            return None
        return cls(op, runs, ports, index)

    def spool(self, pid: int, name: str, record_nbytes: int) -> Spool:
        """A new run of partition ``pid``, labelled for the operator."""
        ctx = self._op.ctx
        return Spool(
            ctx, ctx.governor, record_nbytes,
            "%s.p%d.%s" % (self._label, pid, name),
        )

    # -- the governor's spill-handler protocol ---------------------------

    def spillable_nbytes(self) -> int:
        """The resident partitions' bytes; none while replaying."""
        if self._replaying:
            return 0
        return sum(
            sum(counts) * nbytes
            for counts, nbytes in zip(self.counts, self._nbytes)
        )

    def spill(self, need_bytes: int, ctx) -> int:
        """Move whole partitions to disk, heaviest first, until
        ``need_bytes`` are freed or none is left."""
        if self._replaying:
            return 0
        freed = 0
        while freed < need_bytes:
            pid = self._victim()
            if pid is None:
                break
            freed += self._transfer(pid)
        return freed

    def _victim(self) -> "int | None":
        """The heaviest still-resident partition, ties broken toward
        the lowest id (deterministic); None once nothing is left."""
        best, best_weight = None, 0
        for pid in range(N_SPILL_PARTITIONS):
            if pid in self.spilled:
                continue
            weight = sum(
                counts[pid] * nbytes
                for counts, nbytes in zip(self.counts, self._nbytes)
            )
            if weight > best_weight:
                best, best_weight = pid, weight
        return best

    def _transfer(self, pid: int) -> int:
        """Spill partition ``pid``: open its runs, then per side pop its
        records out of the table and write them to the side's run."""
        op = self._op
        runs = tuple(
            self.spool(pid, name, nbytes) for name, nbytes in self._runs
        )
        self.spilled[pid] = runs
        freed = 0
        for port, nbytes in enumerate(self._nbytes):
            doomed = self.keys[port][pid]
            self.keys[port][pid] = self._index()
            moved = op._pop_partition(port, doomed)
            if moved:
                size = len(moved) * nbytes
                # Release before appending so the transfer never holds
                # the records on both leases at once.
                op.account_state(-size)
                runs[port].extend(moved)
                freed += size
            runs[port].flush()
            self.counts[port][pid] = 0
        return freed

    # -- the operator's side ----------------------------------------------

    def reserve_routed(self, route):
        """Route one chunk of a governed page kernel — at most
        :attr:`chunk_rows` rows — and grow the lease for it *before*
        the inserts, so a reclaim never finds rows in the table that
        the lease does not cover.  ``route()`` returns a tuple whose
        last item is the bytes the rows it keeps in memory will insert.
        If that reclaim spilled a partition of this operator, the chunk
        is routed again (its rows now go to the partition's runs) and
        the excess is released.  The caller adds the kept bytes to the
        metrics once they are inserted."""
        governor = self._op.ctx.governor
        routed = route()
        nbytes = routed[-1]
        spilled = len(self.spilled)
        governor.request(self._lease, nbytes, self._op.ctx)
        if len(self.spilled) != spilled:
            routed = route()
            governor.release(self._lease, nbytes - routed[-1])
        return routed

    #: Pages a replay pass leaves room for beside the records it
    #: holds: one of the run it loads, one of the run it probes with,
    #: and one of the state its matches grow downstream.
    REPLAY_SPARE_PAGES = 3

    def replay_records(self, record_nbytes: int, n: int) -> int:
        """How many of ``n`` spilled records of ``record_nbytes`` one
        replay pass may hold in memory: all of them while the budget
        has room for them beside :data:`REPLAY_SPARE_PAGES` pages, else
        as many as it has room for (at least one page's worth), so
        replaying a partition larger than the budget keeps within it."""
        governor = self._op.ctx.governor
        spare = (
            governor.room()
            - self.REPLAY_SPARE_PAGES * governor.page_nbytes()
        )
        return max(
            governor.page_records_for(record_nbytes),
            min(n, spare // record_nbytes),
        )

    @contextmanager
    def replaying(self):
        """Hold the operator out of reclaims while it replays (or
        streams) its spilled partitions."""
        self._replaying = True
        try:
            yield
        finally:
            self._replaying = False

    def release(self, port: int = 0) -> None:
        """Forget ``port``'s resident partitions: the operator has
        emptied that side's table."""
        counts, keys = self.counts[port], self.keys[port]
        for pid in range(N_SPILL_PARTITIONS):
            counts[pid] = 0
            keys[pid] = self._index()

    def drop(self, pid: int) -> None:
        """Delete partition ``pid``'s runs and forget it."""
        for spool in self.spilled.pop(pid):
            spool.discard()

    def close(self) -> None:
        """Retire the handler once the operator's output is done, and
        let go of the operator so a finished plan frees by reference
        counting."""
        self._op.ctx.governor.unregister_spillable(self)
        self._op = None
