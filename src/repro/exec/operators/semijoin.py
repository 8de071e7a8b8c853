"""Pipelined semijoin.

Emits each probe-side row at most once, as soon as its key is known to
exist on the source side:

* probe row arrives, key already in the source table → emit now;
* probe row arrives, key unknown → buffer it (the matching source row
  may still be in flight);
* source row arrives with a new key → flush any probe rows buffered
  under that key;
* source input finishes → buffered probe rows can never match; drop
  them and release their state.

The probe buffer never holds a row whose key has already been seen on
the source side, so state stays bounded by the unmatched prefix.

Under a memory governor the probe buffer (the operator's bulk) spills
by key partition: a spilled partition's pending rows live in a disk
run, and later unmatched probe rows for it are appended there instead
of the hash table.  Source keys stay resident (they are small), so
matched probe rows still emit immediately; when the source input
completes, the spilled runs are streamed once and every row whose key
made it into the final source-key set is emitted — exactly the rows
the in-memory flushes would have produced.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.common.sizing import key_nbytes
from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator, Row

PROBE = 0
SOURCE = 1


class PSemiJoin(Operator):
    """Physical pipelined semijoin (probe on port 0, source on port 1)."""

    n_inputs = 2
    stateful = True
    #: A source-key arrival can *release* buffered probe rows
    #: mid-stream.  Operator-at-a-time batching would reorder those
    #: negative state deltas against other operators' inserts within the
    #: same arrival run, so peak-state accounting could drift from the
    #: tuple path; plans containing a semijoin therefore stay on the
    #: per-tuple engine loop.
    batch_safe = False

    def __init__(
        self,
        ctx: ExecutionContext,
        op_id: int,
        probe_schema: Schema,
        source_schema: Schema,
        probe_keys: List[str],
        source_keys: List[str],
    ):
        super().__init__(
            ctx, op_id, probe_schema, [probe_schema, source_schema], "SemiJoin"
        )
        self._probe_idx = tuple(probe_schema.index_of(k) for k in probe_keys)
        self._source_idx = tuple(source_schema.index_of(k) for k in source_keys)
        self._source_keys: Set = set()
        self._pending: Dict[object, List[Row]] = {}
        self._probe_row_bytes = probe_schema.row_byte_size()
        self._key_bytes = key_nbytes(len(source_keys))
        if self._lease is not None:
            from repro.storage.spill import N_SPILL_PARTITIONS
            #: pid -> Spool of pending probe rows (moved + deferred).
            self._spilled: Dict[int, object] = {}
            self._part_rows = [0] * N_SPILL_PARTITIONS
            self._replaying = False
        else:
            self._spilled = None

    def _key(self, row: Row, indices) -> object:
        if len(indices) == 1:
            return row[indices[0]]
        return tuple(row[i] for i in indices)

    def push(self, row: Row, port: int = 0) -> None:
        cm = self.ctx.cost_model
        metrics = self.ctx.metrics
        metrics.counters(self.op_id).tuples_in += 1
        self.ctx.charge_op(self.op_id, cm.tuple_base)
        if not self.passes_filters(row, port):
            return

        if port == PROBE:
            key = self._key(row, self._probe_idx)
            self.ctx.charge_op(self.op_id, cm.hash_probe)
            if key in self._source_keys:
                self.emit(row)
            elif not self._input_done[SOURCE]:
                pid = -1
                if self._spilled is not None:
                    from repro.storage.spill import spill_partition
                    pid = spill_partition(key)
                    if pid in self._spilled:
                        # Deferred: the matching source key may still
                        # arrive; the run replays at source completion.
                        self.ctx.charge_op(self.op_id, cm.hash_insert)
                        self._spilled[pid].append(row)
                        self.ctx.strategy.after_tuple(self, port, row)
                        return
                self.ctx.charge_op(self.op_id, cm.hash_insert)
                self._pending.setdefault(key, []).append(row)
                if pid >= 0:
                    self._part_rows[pid] += 1
                self.account_state(self._probe_row_bytes)
            # Source already complete and key absent: row can never match.
        else:
            key = self._key(row, self._source_idx)
            self.ctx.charge_op(self.op_id, cm.hash_probe)
            if key in self._source_keys:
                return  # duplicate source key carries no new information
            self.ctx.charge_op(self.op_id, cm.hash_insert)
            self._source_keys.add(key)
            self.account_state(self._key_bytes)
            waiting = self._pending.pop(key, None)
            if waiting:
                if self._spilled is not None:
                    from repro.storage.spill import spill_partition
                    self._part_rows[spill_partition(key)] -= len(waiting)
                self.account_state(
                    -len(waiting) * self._probe_row_bytes
                )
                for pending_row in waiting:
                    self.ctx.charge_op(self.op_id, cm.output_build)
                    self.emit(pending_row)
        self.ctx.strategy.after_tuple(self, port, row)

    def finish(self, port: int = 0) -> None:
        self._mark_input_done(port)
        if port == SOURCE:
            if self._spilled:
                # Replay the spilled pending runs against the now-final
                # source key set — the matches the in-memory flushes
                # would have emitted as those keys arrived.
                self._replay_spilled()
            if self._pending:
                dropped = sum(len(rows) for rows in self._pending.values())
                self.account_state(-dropped * self._probe_row_bytes)
                self._pending.clear()
                if self._spilled is not None:
                    for pid in range(len(self._part_rows)):
                        self._part_rows[pid] = 0
        self.ctx.strategy.on_input_finished(self, port)
        if self.all_inputs_done:
            if self._source_keys:
                self.account_state(
                    -len(self._source_keys) * self._key_bytes
                )
                self._source_keys.clear()
            self.finish_output()

    # -- spilling ----------------------------------------------------------

    def spillable_nbytes(self) -> int:
        if self._spilled is None or self._replaying:
            return 0
        return sum(self._part_rows) * self._probe_row_bytes

    def spill(self, need_bytes: int, ctx) -> int:
        """Move whole pending-buffer key partitions to disk."""
        if self._spilled is None or self._replaying:
            return 0
        from repro.storage.spill import (
            Spool, pick_spill_victim, spill_partition,
        )

        freed = 0
        while freed < need_bytes:
            best = pick_spill_victim(self._part_rows, self._spilled)
            if best is None:
                break
            spool = Spool(
                self.ctx, self.ctx.governor, self._probe_row_bytes,
                "%s#%d.p%d.pending" % (self.name, self.op_id, best),
            )
            self._spilled[best] = spool
            moved = 0
            for key in [
                k for k in self._pending if spill_partition(k) == best
            ]:
                rows = self._pending.pop(key)
                self.account_state(-len(rows) * self._probe_row_bytes)
                for row in rows:
                    moved += 1
                    spool.append(row)
            spool.flush()
            self._part_rows[best] = 0
            if moved:
                freed += moved * self._probe_row_bytes
        return freed

    def _replay_spilled(self) -> None:
        cm = self.ctx.cost_model
        source_keys = self._source_keys
        probe_idx = self._probe_idx
        self._replaying = True
        try:
            for pid in sorted(self._spilled):
                spool = self._spilled[pid]
                probed = 0
                for row in spool.records():
                    probed += 1
                    if self._key(row, probe_idx) in source_keys:
                        self.ctx.charge_op(self.op_id, cm.output_build)
                        self.emit(row)
                if probed:
                    self.ctx.charge_events_op(self.op_id, probed, cm.hash_probe)
                spool.discard()
            self._spilled.clear()
        finally:
            self._replaying = False

    # -- state exposure ----------------------------------------------------

    def state_values(self, port: int, attr_name: str):
        if port == SOURCE:
            # Single-key semijoins store raw values; composite keys as tuples.
            name_list = [
                self.input_schemas[SOURCE].names[i] for i in self._source_idx
            ]
            pos = name_list.index(attr_name)
            for key in self._source_keys:
                yield key if len(self._source_idx) == 1 else key[pos]
        else:
            idx = self.input_schemas[PROBE].index_of(attr_name)
            for rows in self._pending.values():
                for row in rows:
                    yield row[idx]
            if self._spilled:
                for pid in sorted(self._spilled):
                    for row in self._spilled[pid].records():
                        yield row[idx]

    def stored_count(self, port: int) -> int:
        if port == SOURCE:
            return len(self._source_keys)
        count = sum(len(rows) for rows in self._pending.values())
        if self._spilled:
            for spool in self._spilled.values():
                count += spool.n_records
        return count

    def state_complete(self, port: int) -> bool:
        # The probe buffer only ever holds *unmatched* rows — never a
        # complete subexpression.  The source key set is complete once
        # the source input finishes.
        return port == SOURCE and self._input_done[SOURCE]
