"""Arrival models: when source tuples become available to the engine.

The paper's experiments distinguish three source regimes:

* **fast local streaming** (Section VI-A): data streamed from disk, no
  indices — modelled by a small per-tuple read cost;
* **delayed / rate-limited** (Section VI-B): "PARTSUPP was delayed by
  100msec and rate-limited by injecting a 5msec delay every 1000
  tuples" — modelled by ``initial_delay`` and ``batch_delay`` every
  ``batch_size`` tuples;
* **remote fetch** (Section VI-C): the relation is fetched across a
  simulated Ethernet — modelled by per-row transfer time at the link
  bandwidth, with *source-side filters*: once an AIP filter has been
  shipped to the remote site, rows it rejects are dropped **before**
  they consume link capacity, which is exactly the adaptive Bloomjoin
  benefit the distributed experiments measure.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import Callable, List, Optional, Tuple

from repro.exec.metrics import _TICKS_PER_SECOND

Row = Tuple


class SourceFilter:
    """A summary filter installed at a (possibly remote) source.

    ``activation_time`` is the virtual time at which the filter arrived
    at the source; rows leaving the source before that moment are not
    affected.
    """

    __slots__ = ("key_index", "summary", "activation_time", "pruned")

    def __init__(self, key_index: int, summary, activation_time: float):
        self.key_index = key_index
        self.summary = summary
        self.activation_time = activation_time
        self.pruned = 0

    def passes(self, row: Row) -> bool:
        return row[self.key_index] in self.summary


class PredicateSourceFilter(SourceFilter):
    """A pushed-down *query predicate* evaluated at the source.

    Unlike a shipped AIP summary this is part of the query plan itself
    (Tukwila "pushes portions of the query from the 'master' query node
    to the remote source", Section V-A), so it is active from the start
    of execution.
    """

    __slots__ = ("predicate",)

    def __init__(self, predicate: Callable[[Row], bool]):
        super().__init__(0, None, activation_time=0.0)
        self.predicate = predicate

    def passes(self, row: Row) -> bool:
        return bool(self.predicate(row))


class ArrivalModel:
    """Computes availability times for a source's tuples.

    The model is evaluated lazily so that filters installed mid-flight
    (distributed AIP) affect tuples not yet transmitted.
    """

    def __init__(
        self,
        initial_delay: float = 0.0,
        per_tuple: float = 0.0,
        batch_size: int = 0,
        batch_delay: float = 0.0,
        bandwidth: Optional[float] = None,
        row_bytes: int = 0,
        source_read: float = 0.0,
        fanout: int = 1,
    ):
        if batch_size < 0 or (batch_size > 0 and batch_delay < 0):
            raise ValueError("invalid batching parameters")
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        self.initial_delay = initial_delay
        self.per_tuple = per_tuple
        self.batch_size = batch_size
        self.batch_delay = batch_delay
        self.bandwidth = bandwidth
        self.row_bytes = row_bytes
        self.source_read = source_read
        #: Wire fan-out: how many partition destinations each accepted
        #: row must reach.  A broadcast join side pays its transfer once
        #: per destination partition on its (serialising) uplink; rows a
        #: shipped AIP filter rejects skip the whole fan-out — exactly
        #: the multiplied saving the distributed benefit model counts.
        self.fanout = fanout
        self._emitted = 0
        self._link_time = initial_delay
        self.filters: List[SourceFilter] = []
        self.rows_transferred = 0

    @classmethod
    def immediate(cls) -> "ArrivalModel":
        """Everything available at time zero (in-memory source)."""
        return cls()

    @classmethod
    def streaming(cls, per_tuple: float = 5.0e-7) -> "ArrivalModel":
        """Local disk streaming at a fixed per-tuple read rate."""
        return cls(per_tuple=per_tuple)

    @classmethod
    def delayed(
        cls,
        initial_delay: float = 0.100,
        batch_size: int = 1000,
        batch_delay: float = 0.005,
        per_tuple: float = 5.0e-7,
    ) -> "ArrivalModel":
        """The paper's Section VI-B delay model."""
        return cls(
            initial_delay=initial_delay,
            per_tuple=per_tuple,
            batch_size=batch_size,
            batch_delay=batch_delay,
        )

    @classmethod
    def remote(
        cls,
        bandwidth: float,
        row_bytes: int,
        latency: float = 1.0e-3,
        source_read: float = 2.0e-7,
    ) -> "ArrivalModel":
        """Rows shipped over a link of ``bandwidth`` bytes/second."""
        return cls(
            initial_delay=latency,
            bandwidth=bandwidth,
            row_bytes=row_bytes,
            source_read=source_read,
        )

    # -- filters -------------------------------------------------------

    def install_filter(self, key_index: int, summary, activation_time: float) -> SourceFilter:
        """Install a source-side filter (a shipped AIP set)."""
        f = SourceFilter(key_index, summary, activation_time)
        self.filters.append(f)
        return f

    def install_predicate(self, predicate) -> "PredicateSourceFilter":
        """Install a pushed-down query predicate, active from t=0."""
        f = PredicateSourceFilter(predicate)
        self.filters.append(f)
        return f

    def _passes_active_filters(self, row: Row) -> bool:
        for f in self.filters:
            if f.activation_time <= self._link_time and not f.passes(row):
                f.pruned += 1
                return False
        return True

    # -- arrival computation -------------------------------------------

    def next_arrival(self, rows, start: int) -> Optional[Tuple[int, float, Row]]:
        """Find the next row at or after index ``start`` that reaches
        the consumer, returning ``(next_index, arrival_time, row)``.

        Rows rejected by active source-side filters cost source read
        time but no transfer time; accepted rows pay per-tuple cost,
        batch delays and (for remote links) transfer time.
        """
        i = start
        n = len(rows)
        while i < n:
            row = rows[i]
            i += 1
            # A batch delay applies between batches: after each full
            # batch of ``batch_size`` tuples, the next tuple is delayed.
            if (
                self.batch_size
                and self._emitted
                and self._emitted % self.batch_size == 0
            ):
                self._link_time += self.batch_delay
            self._emitted += 1
            self._link_time += self.per_tuple + self.source_read
            if not self._passes_active_filters(row):
                continue
            if self.bandwidth is not None:
                self._link_time += (self.row_bytes * self.fanout) / self.bandwidth
            self.rows_transferred += 1
            return (i, self._link_time, row)
        return None

    @property
    def local(self) -> bool:
        """True when arrival times are a plain running sum: no link, no
        source-side filter and no batch delay.  Such a source's times
        depend on nothing the run could change, so a drive step may
        compute a whole run of them ahead (:meth:`local_times`)."""
        return self.bandwidth is None and not self.filters and not self.batch_size

    def local_times(self, n: int) -> List[float]:
        """Arrival times of the pending row and of the ``n - 1`` rows
        after it, for a :attr:`local` model, without advancing it: the
        same float additions, in the same order, that ``n - 1`` calls
        of :meth:`next_arrival` would make."""
        step = self.per_tuple + self.source_read
        return list(accumulate(repeat(step, n - 1), initial=self._link_time))

    def local_due(self, now_ticks: int, most: int) -> int:
        """About how many rows, the pending one first, a :attr:`local`
        model has delivered by ``now_ticks``, at most ``most`` — a
        starting length for :meth:`local_times`, which stays the
        authority on exact times (the estimate ignores float rounding,
        so it may be off by one)."""
        elapsed = now_ticks / _TICKS_PER_SECOND - self._link_time
        if elapsed < 0:
            return 0
        step = self.per_tuple + self.source_read
        if step <= 0 or elapsed >= step * most:
            return most
        return int(elapsed / step) + 1

    def skip_local(self, rows: int, when: float) -> None:
        """Advance a :attr:`local` model past ``rows`` further rows, the
        last of which arrives at ``when`` (taken from
        :meth:`local_times`) — the state ``rows`` calls of
        :meth:`next_arrival` would leave."""
        self._emitted += rows
        self.rows_transferred += rows
        self._link_time = when

    @property
    def bytes_transferred(self) -> int:
        return self.rows_transferred * self.row_bytes * self.fanout
