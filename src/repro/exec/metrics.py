"""Execution metrics.

Tracks exactly the quantities the paper's figures report — running time
(our virtual clock) and intermediate state (peak buffered bytes across
all stateful operators and AIP sets) — plus the cardinality counters
Tukwila exposes to its optimizer ("All query operators are supplemented
with cardinality counters", Section V-A) and AIP-specific counters used
in the experiment write-ups.

Time is accounted in integer **ticks** (one tick = 1 picosecond) rather
than accumulated floats.  A page kernel charges a page's per-event
costs in bulk, and the clock must not depend on how rows are grouped
into pages, while float summation is grouping-sensitive.  Integer ticks
make ``charge_events(n, c)`` exactly equal to ``n`` repetitions of
``charge(c)``: both add ``n * round(c / TICK)`` ticks.
"""

from __future__ import annotations

from typing import Dict

#: One clock tick in seconds.  All charges and arrival times are
#: quantised to this resolution; per-event costs in the default
#: :class:`~repro.exec.costs.CostModel` are whole multiples of it.
TICK = 1e-12

#: Ticks per second (exactly representable as a float: 10**12 < 2**53).
_TICKS_PER_SECOND = 1e12


def seconds_to_ticks(seconds: float) -> int:
    """Quantise a duration (or absolute virtual time) to clock ticks."""
    return round(seconds * _TICKS_PER_SECOND)


class OperatorCounters:
    """Per-operator tuple counters."""

    __slots__ = ("tuples_in", "tuples_out", "tuples_pruned")

    def __init__(self):
        self.tuples_in = 0
        self.tuples_out = 0
        self.tuples_pruned = 0


class Metrics:
    """Mutable metric store owned by one query execution.

    ``pages_pushed``/``rows_selected`` count page-kernel invocations at
    every operator a page reaches: scans and what they feed, and
    equally the operators downstream of a join or distinct, whose
    output travels as a (row-born) page like any other.  Before the
    row-batch path was removed that output arrived as a row list and
    went uncounted, so totals compared across that change differ by
    the number of non-empty join/distinct emissions — a change of
    definition, not of work done.
    """

    def __init__(self):
        self._clock_ticks: int = 0
        self._idle_ticks: int = 0
        self._cpu_ticks: int = 0
        self._state_bytes: Dict[int, int] = {}
        self._total_state_bytes: int = 0
        self.peak_state_bytes: int = 0
        self.operators: Dict[int, OperatorCounters] = {}
        #: Per-operator attribution (EXPLAIN ANALYZE).  Off by default:
        #: the flag is one truthiness test on the charge path and the
        #: dicts stay empty, so the clock arithmetic — and therefore
        #: batch-path bit-identity — is unchanged either way.
        self.attribute_ops: bool = False
        self.op_ticks: Dict[int, int] = {}
        self.op_state_peaks: Dict[int, int] = {}
        self.aip_sets_created: int = 0
        self.aip_sets_declined: int = 0
        self.aip_bytes_shipped: int = 0
        self.network_bytes: int = 0
        self.result_rows: int = 0
        #: Storage-layer spill traffic (page writes *and* re-reads)
        #: performed under a finite memory budget; zero when no
        #: :class:`~repro.storage.governor.MemoryGovernor` is attached.
        self.spill_bytes: int = 0
        self.spill_events: int = 0
        #: Page-kernel activity: column batches processed by operator
        #: page kernels, and the rows those kernels selected (survived
        #: filters/predicates) out of them.  Run cadence, deliberately
        #: *not* part of the equivalence contract, which compares
        #: clocks, state and tuple counters.
        self.pages_pushed: int = 0
        self.rows_selected: int = 0

    # -- time ----------------------------------------------------------

    @property
    def clock(self) -> float:
        return self._clock_ticks / _TICKS_PER_SECOND

    @property
    def cpu_time(self) -> float:
        return self._cpu_ticks / _TICKS_PER_SECOND

    @property
    def idle_time(self) -> float:
        return self._idle_ticks / _TICKS_PER_SECOND

    @property
    def clock_ticks(self) -> int:
        """The clock in raw ticks (used by the drive loop to decide
        which pending arrivals count as "already arrived")."""
        return self._clock_ticks

    def charge(self, seconds: float) -> None:
        """Advance the clock by CPU work."""
        ticks = round(seconds * _TICKS_PER_SECOND)
        self._clock_ticks += ticks
        self._cpu_ticks += ticks

    def charge_events(self, count: int, seconds_each: float) -> None:
        """Advance the clock by ``count`` events of ``seconds_each``.

        Exactly equivalent — to the tick — to calling
        :meth:`charge` ``count`` times, which is what makes a page
        kernel's bulk charges independent of the page size.
        """
        ticks = count * round(seconds_each * _TICKS_PER_SECOND)
        self._clock_ticks += ticks
        self._cpu_ticks += ticks

    def charge_op(self, owner_id: int, seconds: float) -> None:
        """:meth:`charge`, attributable to one operator.

        The tick arithmetic is identical to :meth:`charge` — same
        rounding, same order — so enabling attribution can never move
        the clock; it only files a copy of the ticks under the owner.
        """
        ticks = round(seconds * _TICKS_PER_SECOND)
        self._clock_ticks += ticks
        self._cpu_ticks += ticks
        if self.attribute_ops:
            self.op_ticks[owner_id] = self.op_ticks.get(owner_id, 0) + ticks

    def charge_events_op(
        self, owner_id: int, count: int, seconds_each: float
    ) -> None:
        """:meth:`charge_events`, attributable to one operator."""
        ticks = count * round(seconds_each * _TICKS_PER_SECOND)
        self._clock_ticks += ticks
        self._cpu_ticks += ticks
        if self.attribute_ops:
            self.op_ticks[owner_id] = self.op_ticks.get(owner_id, 0) + ticks

    def wait_until(self, when: float) -> None:
        """Advance the clock to an arrival time, recording idleness."""
        ticks = round(when * _TICKS_PER_SECOND)
        if ticks > self._clock_ticks:
            self._idle_ticks += ticks - self._clock_ticks
            self._clock_ticks = ticks

    # -- state accounting ------------------------------------------------

    def adjust_state(self, owner_id: int, delta: int) -> None:
        """Add ``delta`` bytes to an owner's buffered state.

        The aggregate is maintained incrementally (exact, since deltas
        are integers) — a full ``sum()`` over every stateful owner per
        tuple used to dominate the insert hot path.
        """
        owner_bytes = self._state_bytes.get(owner_id, 0) + delta
        self._state_bytes[owner_id] = owner_bytes
        total = self._total_state_bytes + delta
        self._total_state_bytes = total
        if total > self.peak_state_bytes:
            self.peak_state_bytes = total
        if self.attribute_ops and owner_bytes > self.op_state_peaks.get(
            owner_id, 0
        ):
            self.op_state_peaks[owner_id] = owner_bytes

    @property
    def total_state_bytes(self) -> int:
        return self._total_state_bytes

    def state_bytes_of(self, owner_id: int) -> int:
        return self._state_bytes.get(owner_id, 0)

    # -- counters --------------------------------------------------------

    def counters(self, op_id: int) -> OperatorCounters:
        counter = self.operators.get(op_id)
        if counter is None:
            counter = OperatorCounters()
            self.operators[op_id] = counter
        return counter

    @property
    def total_pruned(self) -> int:
        return sum(c.tuples_pruned for c in self.operators.values())

    def summary(self) -> Dict[str, float]:
        """Flat dictionary behind ``RunRecord.summary``: what ``repro
        run`` prints and the paper-shape tests assert."""
        return {
            "virtual_seconds": self.clock,
            "cpu_seconds": self.cpu_time,
            "idle_seconds": self.idle_time,
            "peak_state_mb": self.peak_state_bytes / 1e6,
            "tuples_pruned": self.total_pruned,
            "aip_sets_created": self.aip_sets_created,
            "aip_sets_declined": self.aip_sets_declined,
            "aip_bytes_shipped": self.aip_bytes_shipped,
            "network_bytes": self.network_bytes,
            "result_rows": self.result_rows,
            "spill_bytes": self.spill_bytes,
            "spill_events": self.spill_events,
            "pages_pushed": self.pages_pushed,
            "rows_selected": self.rows_selected,
        }
