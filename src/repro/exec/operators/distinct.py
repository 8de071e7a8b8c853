"""Duplicate elimination.

Pipelined: the first occurrence of a row is forwarded immediately, so a
distinct does not block, but it buffers every distinct row seen — state
the paper explicitly calls out as an AIP source (Example 3.1 builds a
hash set "from the state in the distinct operator").

Under a memory governor the seen-set spills Grace-style by whole-row
hash partition: a spilled partition's distinct rows move to a disk run,
and later arrivals for that partition are *deferred* to a delta run —
their duplicate status is unknowable without the disk-resident set, so
they are neither forwarded nor dropped until the input completes.  At
completion each partition is replayed one at a time: the seen run
reloads, delta rows stream through it in arrival order, and fresh rows
are emitted (and appended to the seen run, which then holds the
partition's complete distinct set for ``state_values``).
"""

from __future__ import annotations

from typing import List, Set

from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator, Row
from repro.storage.spill import PartitionLedger, spill_partitions


class PDistinct(Operator):
    """Hash-set based duplicate elimination over full rows."""

    stateful = True

    def __init__(self, ctx: ExecutionContext, op_id: int, schema: Schema):
        super().__init__(ctx, op_id, schema, [schema], "Distinct")
        self._seen: Set[Row] = set()
        self._row_bytes = schema.row_byte_size()
        #: A spilled partition's runs: its distinct rows (seen), then
        #: the rows that arrived later (delta).  The key index holds
        #: the seen rows themselves.
        self._ledger = PartitionLedger.open(self, (
            ("seen", self._row_bytes), ("delta", self._row_bytes),
        ))

    def push_page(self, page, port: int = 0) -> None:
        """Page kernel: first occurrences are forwarded in order.  The
        seen-set stores whole rows, so the page is re-materialised once
        after AIP probing; the strategy hook sees only the fresh rows
        (never the full page).  ``hash_probe`` is charged only for rows
        that reach the seen-set: a row pruned by an injected AIP filter
        never probes it."""
        cm = self.ctx.cost_model
        metrics = self.ctx.metrics
        n_in = page.n_rows
        metrics.counters(self.op_id).tuples_in += n_in
        self.ctx.charge_events_op(self.op_id, n_in, cm.tuple_base)
        page = self.passes_filters_page(page, 0)
        if not page.n_rows:
            return
        if self._lease is not None:
            self._distinct_governed(page, n_in)
            return
        self.ctx.charge_events_op(self.op_id, page.n_rows, cm.hash_probe)
        seen = self._seen
        add = seen.add
        fresh = []
        append = fresh.append
        for i, row in enumerate(page.rows()):
            if row not in seen:
                add(row)
                append(i)
        self._page_stats(n_in, len(fresh))
        if fresh:
            self.ctx.charge_events_op(self.op_id, len(fresh), cm.hash_insert)
            metrics.adjust_state(self.op_id, len(fresh) * self._row_bytes)
            # All fresh: forward the page itself, columns and all; the
            # selection carries the fresh rows' ``seq`` along.
            out = page.select(fresh)
            self.ctx.strategy.after_tuples_page(self, 0, out)
            self.emit_page(out)

    def _distinct_governed(self, page, n_in: int) -> None:
        """The governed kernel: one governor page of rows at a time,
        the lease grown for a chunk's fresh rows before they join the
        seen-set.  A row whose partition is spilled at that point goes
        to the partition's delta run (its duplicate status is unknowable
        while the partition's seen-set sits on disk) and is charged a
        ``hash_insert``; the strategy hook sees the fresh and the
        deferred rows."""
        cm = self.ctx.cost_model
        seen = self._seen
        ledger = self._ledger
        spilled = ledger.spilled
        rows = page.rows()
        pids = spill_partitions(rows)

        def route(at, end):
            fresh, deferred, n_kept, chunk_seen = [], [], 0, set()
            for i in range(at, min(end, len(rows))):
                if pids[i] in spilled:
                    deferred.append(i)
                    continue
                n_kept += 1
                row = rows[i]
                if row not in seen and row not in chunk_seen:
                    chunk_seen.add(row)
                    fresh.append(i)
            return fresh, deferred, n_kept, len(fresh) * self._row_bytes

        all_fresh, all_deferred = [], []
        step = ledger.chunk_rows
        counts, indexed = ledger.counts[0], ledger.keys[0]
        for at in range(0, len(rows), step):
            fresh, deferred, n_kept, nbytes = ledger.reserve_routed(
                lambda: route(at, at + step)
            )
            for i in fresh:
                seen.add(rows[i])
                counts[pids[i]] += 1
                indexed[pids[i]].append(rows[i])
            self.ctx.metrics.adjust_state(self.op_id, nbytes)
            self.ctx.charge_events_op(self.op_id, n_kept, cm.hash_probe)
            self.ctx.charge_events_op(
                self.op_id, len(fresh) + len(deferred), cm.hash_insert
            )
            for i in deferred:
                spilled[pids[i]][1].append(rows[i])
            all_fresh.extend(fresh)
            all_deferred.extend(deferred)
        self._page_stats(n_in, len(all_fresh))
        out = page.select(all_fresh)
        shown = (
            page.select(sorted(all_fresh + all_deferred)) if all_deferred
            else out
        )
        if shown.n_rows:
            self.ctx.strategy.after_tuples_page(self, 0, shown)
        self.emit_page(out)

    def finish(self, port: int = 0) -> None:
        self._mark_input_done(port)
        if self._spilled:
            # Deferred rows emit before the strategy hook, matching the
            # in-memory operator where all emission precedes finish.
            self._replay_spilled()
        self.ctx.strategy.on_input_finished(self, 0)
        if self._seen:
            self.account_state(-len(self._seen) * self._row_bytes)
            self._seen.clear()
            if self._ledger is not None:
                self._ledger.release()
        for pid in list(self._spilled):
            self._ledger.drop(pid)
        self.finish_output()

    # -- spilling ----------------------------------------------------------

    def _pop_partition(self, port: int, keys) -> List[Row]:
        """Spill hook: the index holds the partition's seen rows, in
        insertion order; drop them from the seen-set."""
        self._seen.difference_update(keys)
        return keys

    def _replay_spilled(self) -> None:
        """Per partition: reload the seen run, stream delta rows in
        arrival order, emit the fresh ones (appending them to the seen
        run so it holds the partition's complete distinct set) as one
        page per partition."""
        cm = self.ctx.cost_model
        with self._ledger.replaying():
            for pid in sorted(self._spilled):
                seen_spool, delta_spool = self._spilled[pid]
                part_seen: Set[Row] = set()
                for row in seen_spool.records():
                    part_seen.add(row)
                if part_seen:
                    self.account_state(len(part_seen) * self._row_bytes)
                replayed = 0
                fresh = []
                for row in delta_spool.records():
                    replayed += 1
                    if row in part_seen:
                        continue
                    part_seen.add(row)
                    self.account_state(self._row_bytes)
                    seen_spool.append(row)
                    fresh.append(row)
                if replayed:
                    self.ctx.charge_events_op(self.op_id, replayed, cm.hash_probe)
                delta_spool.discard()
                if part_seen:
                    self.account_state(-len(part_seen) * self._row_bytes)
                if fresh:
                    self.ctx.charge_events_op(
                        self.op_id, len(fresh), cm.output_build
                    )
                    self.emit_rows(fresh)

    # -- state exposure ----------------------------------------------------

    def state_values(self, port: int, attr_name: str):
        idx = self.input_schemas[0].index_of(attr_name)
        for row in self._seen:
            yield row[idx]
        spilled = self._spilled
        for pid in sorted(spilled):
            seen_spool, _delta = spilled[pid]
            for row in seen_spool.records():
                yield row[idx]

    def stored_count(self, port: int) -> int:
        count = len(self._seen)
        for seen_spool, _delta in self._spilled.values():
            count += seen_spool.n_records
        return count

    def state_complete(self, port: int) -> bool:
        return self._input_done[0]
