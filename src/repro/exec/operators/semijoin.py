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
from repro.exec.operators.base import Row, StashingOperator
from repro.exec.pages import ColumnBatch
from repro.storage.spill import PartitionLedger, spill_partition

PROBE = 0
SOURCE = 1


class PSemiJoin(StashingOperator):
    """Physical pipelined semijoin (probe on port 0, source on port 1)."""

    n_inputs = 2
    stateful = True

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
        #: A spilled partition's one run holds its pending probe rows:
        #: those moved out of the buffer and those that arrived later.
        #: The key index is an ordered set, as a source row's arrival
        #: releases its key.
        self._ledger = PartitionLedger.open(
            self, (("pending", self._probe_row_bytes),), index=dict,
        )

    def _key(self, row: Row, indices) -> object:
        if len(indices) == 1:
            return row[indices[0]]
        return tuple(row[i] for i in indices)

    def _process_pages(self, pages) -> None:
        """The kernel over ``(port, page)`` pairs, rows in ``seq`` order
        across ports.  A probe row whose key is known is emitted at
        once, else buffered while the source input is live; a source row
        with a new key releases the probe rows buffered under it.  The
        emitted rows leave as one page, each carrying its trigger row's
        ``seq``.  Charges are bulk; state is accounted row by row, so
        the buffer's releases keep their order against its inserts (and
        a governed reclaim sees the buffer exactly as it stands)."""
        cm = self.ctx.cost_model
        counters = self.ctx.metrics.counters(self.op_id)
        seqs = [] if pages[0][1].seq is not None else None
        rows, ports, accepted = [], [], []
        for port, page in pages:
            n_in = page.n_rows
            counters.tuples_in += n_in
            self.ctx.charge_events_op(self.op_id, n_in, cm.tuple_base)
            page = self.passes_filters_page(page, port)
            if not page.n_rows:
                continue
            self._page_stats(n_in, page.n_rows)
            accepted.append((port, page, len(rows)))
            rows.extend(page.rows())
            ports.extend([port] * page.n_rows)
            if seqs is not None:
                seqs.extend(page.seq)
        if not rows:
            return
        if len(accepted) > 1:
            order = sorted(range(len(seqs)), key=seqs.__getitem__)
        else:
            order = range(len(rows))

        ledger = self._ledger
        if ledger is not None:
            spilled = ledger.spilled
            counts, indexed = ledger.counts[0], ledger.keys[0]
        source_keys = self._source_keys
        pending = self._pending
        source_live = not self._input_done[SOURCE]
        # Source rows whose key was already known: the strategy hook
        # never sees them (they carry no new information).
        shown = [True] * len(rows)
        out, out_seq = [], ([] if seqs is not None else None)
        inserted = released = 0
        for i in order:
            row = rows[i]
            if ports[i] == PROBE:
                key = self._key(row, self._probe_idx)
                if key in source_keys:
                    out.append(row)
                    if out_seq is not None:
                        out_seq.append(seqs[i])
                elif source_live:
                    # Source incomplete: the matching key may yet
                    # arrive.  (Once it is complete the row can never
                    # match and is dropped.)
                    inserted += 1
                    if ledger is not None:
                        pid = spill_partition(key)
                        if pid in spilled:
                            # Deferred: the run replays at completion.
                            spilled[pid][0].append(row)
                            continue
                        counts[pid] += 1
                        indexed[pid][key] = None
                    pending.setdefault(key, []).append(row)
                    self.account_state(self._probe_row_bytes)
            else:
                key = self._key(row, self._source_idx)
                if key in source_keys:
                    shown[i] = False
                    continue
                inserted += 1
                source_keys.add(key)
                self.account_state(self._key_bytes)
                waiting = pending.pop(key, None)
                if waiting:
                    if ledger is not None:
                        pid = spill_partition(key)
                        counts[pid] -= len(waiting)
                        del indexed[pid][key]
                    self.account_state(-len(waiting) * self._probe_row_bytes)
                    released += len(waiting)
                    out.extend(waiting)
                    if out_seq is not None:
                        out_seq.extend([seqs[i]] * len(waiting))

        self.ctx.charge_events_op(self.op_id, len(rows), cm.hash_probe)
        if inserted:
            self.ctx.charge_events_op(self.op_id, inserted, cm.hash_insert)
        for port, page, start in accepted:
            if port == SOURCE:
                page = page.select([
                    j for j in range(page.n_rows) if shown[start + j]
                ])
            if page.n_rows:
                self.ctx.strategy.after_tuples_page(self, port, page)
        if released:
            self.ctx.charge_events_op(self.op_id, released, cm.output_build)
        if out:
            self.emit_page(
                ColumnBatch.from_rows(out, len(self.out_schema), out_seq)
            )

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
                if self._ledger is not None:
                    self._ledger.release()
        self.ctx.strategy.on_input_finished(self, port)
        if self.all_inputs_done:
            if self._source_keys:
                self.account_state(
                    -len(self._source_keys) * self._key_bytes
                )
                self._source_keys.clear()
            self.finish_output()

    # -- spilling ----------------------------------------------------------

    def _pop_partition(self, port: int, keys) -> List[Row]:
        """Spill hook: pop the pending probe rows under ``keys``."""
        moved = []
        for key in keys:
            moved.extend(self._pending.pop(key))
        return moved

    def _replay_spilled(self) -> None:
        cm = self.ctx.cost_model
        source_keys = self._source_keys
        probe_idx = self._probe_idx
        ledger = self._ledger
        with ledger.replaying():
            for pid in sorted(ledger.spilled):
                (spool,) = ledger.spilled[pid]
                probed = 0
                matched = []
                for row in spool.records():
                    probed += 1
                    if self._key(row, probe_idx) in source_keys:
                        matched.append(row)
                if probed:
                    self.ctx.charge_events_op(self.op_id, probed, cm.hash_probe)
                ledger.drop(pid)
                if matched:
                    self.ctx.charge_events_op(
                        self.op_id, len(matched), cm.output_build
                    )
                    self.emit_rows(matched)

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
            spilled = self._spilled
            for pid in sorted(spilled):
                (spool,) = spilled[pid]
                for row in spool.records():
                    yield row[idx]

    def stored_count(self, port: int) -> int:
        if port == SOURCE:
            return len(self._source_keys)
        count = sum(len(rows) for rows in self._pending.values())
        for (spool,) in self._spilled.values():
            count += spool.n_records
        return count

    def state_complete(self, port: int) -> bool:
        # The probe buffer only ever holds *unmatched* rows — never a
        # complete subexpression.  The source key set is complete once
        # the source input finishes.
        return port == SOURCE and self._input_done[SOURCE]
