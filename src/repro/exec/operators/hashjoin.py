"""Pipelined (symmetric) hash join.

This is the workhorse of push-style query processing (the paper builds
on Tukwila's pipelined hash join [10], [11]).  Both inputs are hashed;
a tuple arriving on either side probes the opposite table, emits any
matches, and is inserted into its own side's table so that future
arrivals from the opposite side can find it.

Two behaviours from the paper are implemented here:

* **short-circuiting** (Section VI-A, the Q2C discussion): "if one of
  the join inputs completes, the other input 'short-circuits' and stops
  buffering input that will not be needed later."  When an input
  finishes, the opposite side's hash table is released and no longer
  appended to — nothing will ever probe it again.
* **AIP state exposure**: a finished input's hash table *is* the
  materialised result of that subexpression, which both AIP algorithms
  turn into filters (``state_values``).

Under a memory governor the join spills Grace-style: a partition of
the key space moves to disk as two generations per side — **frozen**
(rows that were in the hash tables when the partition spilled; every
frozen-left × frozen-right match was already emitted while streaming)
and **delta** (rows arriving after the spill, appended without
probing).  When both inputs complete, the owed matches are exactly
``all pairs − frozen×frozen``, produced by probing the reloaded right
partition with the left delta and the right delta with the frozen
left.  Spilled rows still feed ``state_values`` (streamed from disk),
so AIP summaries built from this state remain complete and sound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Row, StashingOperator
from repro.exec.pages import ColumnBatch
from repro.expr.compiler import compile_predicate
from repro.expr.expressions import Expr


class _PartitionSpill:
    """One spilled key-space partition: per-side frozen + delta runs."""

    __slots__ = ("frozen", "delta")

    def __init__(self, make_spool):
        self.frozen = (make_spool(0, "frozen"), make_spool(1, "frozen"))
        self.delta = (make_spool(0, "delta"), make_spool(1, "delta"))

    def spools(self):
        return self.frozen + self.delta


class PHashJoin(StashingOperator):
    """Symmetric hash join over one or more equi-join key pairs."""

    n_inputs = 2
    stateful = True

    def __init__(
        self,
        ctx: ExecutionContext,
        op_id: int,
        left_schema: Schema,
        right_schema: Schema,
        left_keys: List[str],
        right_keys: List[str],
        residual: Optional[Expr] = None,
    ):
        out_schema = left_schema.concat(right_schema)
        super().__init__(
            ctx, op_id, out_schema, [left_schema, right_schema], "HashJoin"
        )
        self._key_indices = (
            tuple(left_schema.index_of(k) for k in left_keys),
            tuple(right_schema.index_of(k) for k in right_keys),
        )
        self._tables: Tuple[Dict, Dict] = ({}, {})
        self._row_bytes = (
            left_schema.row_byte_size(),
            right_schema.row_byte_size(),
        )
        self._buffering = [True, True]
        #: The residual predicate AST ``_residual`` is compiled from.
        self.residual = residual
        self._rebuild_compiled()
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        if self._lease is not None:
            from repro.storage.spill import N_SPILL_PARTITIONS
            #: pid -> _PartitionSpill for spilled key-space partitions.
            self._spilled: Dict[int, _PartitionSpill] = {}
            #: In-memory row counts per (port, partition), kept so the
            #: spill victim choice is O(partitions), not O(state).
            self._part_rows = (
                [0] * N_SPILL_PARTITIONS, [0] * N_SPILL_PARTITIONS,
            )
            self._replaying = False
            #: Rows per lease request in the page kernel: one governor
            #: page of the wider side's rows.
            self._chunk_rows = ctx.governor.page_records_for(
                max(self._row_bytes)
            )
        else:
            self._spilled = None

    def _rebuild_compiled(self) -> None:
        self._residual = (
            compile_predicate(self.residual, self.out_schema)
            if self.residual is not None
            else None
        )

    def _key_of(self, row: Row, port: int):
        indices = self._key_indices[port]
        if len(indices) == 1:
            return row[indices[0]]
        return tuple(row[i] for i in indices)

    def _process_pages(self, pages) -> None:
        """The kernel over ``(port, page)`` pairs: each surviving row
        probes the opposite table and is then inserted into its own, in
        ``seq`` order across ports — the run's arrival order — while
        costs and state are charged in bulk per port.  Probe keys
        are read straight off the key column(s), zero-copy for
        single-key joins; outputs carry their trigger row's ``seq``.
        A governed join goes through :meth:`_join_governed` instead of
        charging probes, inserts and state up front."""
        cm = self.ctx.cost_model
        metrics = self.ctx.metrics
        counters = metrics.counters(self.op_id)
        buffering = self._buffering
        governed = self._lease is not None
        seqs = [] if pages[0][1].seq is not None else None
        keys, rows, ports, accepted = [], [], [], []
        for port, page in pages:
            n_in = page.n_rows
            counters.tuples_in += n_in
            self.ctx.charge_events_op(self.op_id, n_in, cm.tuple_base)
            page = self.passes_filters_page(page, port)
            n = page.n_rows
            if not n:
                continue
            self._page_stats(n_in, n)
            indices = self._key_indices[port]
            if len(indices) == 1:
                keys.extend(page.columns[indices[0]])
            else:
                keys.extend(zip(*[page.columns[i] for i in indices]))
            rows.extend(page.rows())
            ports.extend([port] * n)
            if seqs is not None:
                seqs.extend(page.seq)
            if not governed:
                self.ctx.charge_events_op(self.op_id, n, cm.hash_probe)
                if buffering[port]:
                    self.ctx.charge_events_op(self.op_id, n, cm.hash_insert)
                    metrics.adjust_state(self.op_id, n * self._row_bytes[port])
            accepted.append((port, page))
        if not rows:
            return
        if len(accepted) > 1:
            order = sorted(range(len(seqs)), key=seqs.__getitem__)
        else:
            order = range(len(rows))

        out = []
        out_seq = [] if seqs is not None else None
        batch = (keys, rows, ports, seqs, out, out_seq)
        if governed:
            n_residual = self._join_governed(order, batch)
        else:
            n_residual = self._probe_insert(order, batch)

        for port, page in accepted:
            self.ctx.strategy.after_tuples_page(self, port, page)
        if n_residual:
            self.ctx.charge_events_op(self.op_id, n_residual, cm.predicate_eval)
        if out:
            self.ctx.charge_events_op(self.op_id, len(out), cm.output_build)
            # Output tuples are combined row-at-a-time, so the page that
            # leaves is row-born (the list is wrapped, not transposed).
            self.emit_page(
                ColumnBatch.from_rows(out, len(self.out_schema), out_seq)
            )

    def _probe_insert(self, order, batch) -> int:
        """Probe, then insert, each row ``order`` names, appending the
        matches to the batch's outputs; returns how many combined rows
        the residual predicate evaluated."""
        keys, rows, ports, seqs, out, out_seq = batch
        buffering = self._buffering
        tables = self._tables
        probes = (tables[1].get, tables[0].get)
        residual = self._residual
        append_out = out.append
        n_residual = 0
        for i in order:
            port = ports[i]
            key = keys[i]
            row = rows[i]
            matches = probes[port](key)
            if matches:
                for match in matches:
                    combined = row + match if port == 0 else match + row
                    if residual is not None:
                        n_residual += 1
                        if not residual(combined):
                            continue
                    append_out(combined)
                    if out_seq is not None:
                        out_seq.append(seqs[i])
            if buffering[port]:
                table = tables[port]
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
        return n_residual

    def _join_governed(self, order, batch) -> int:
        """The governed kernel: :meth:`_probe_insert` one governor page
        of rows at a time, growing the lease for a chunk's inserts
        before they happen.  A row whose key partition is spilled at
        that point goes to the partition's delta run unprobed, charged
        a ``hash_insert``: its owed matches surface at completion."""
        from repro.storage.spill import spill_partitions

        keys, rows, ports = batch[:3]
        cm = self.ctx.cost_model
        buffering = self._buffering
        row_bytes = self._row_bytes
        spilled = self._spilled
        order = list(order)
        pids = spill_partitions([keys[i] for i in order])

        def route(at, end):
            kept, deferred, nbytes = [], [], 0
            for i, pid in zip(order[at:end], pids[at:end]):
                if pid in spilled:
                    deferred.append((i, pid))
                else:
                    kept.append((i, pid))
                    if buffering[ports[i]]:
                        nbytes += row_bytes[ports[i]]
            return kept, deferred, nbytes

        n_residual = 0
        step = self._chunk_rows
        for at in range(0, len(order), step):
            kept, deferred, nbytes = self.reserve_routed(
                lambda: route(at, at + step)
            )
            n_residual += self._probe_insert([i for i, _ in kept], batch)
            inserted = 0
            for i, pid in kept:
                port = ports[i]
                if buffering[port]:
                    self._part_rows[port][pid] += 1
                    inserted += 1
            self.ctx.metrics.adjust_state(self.op_id, nbytes)
            self.ctx.charge_events_op(self.op_id, len(kept), cm.hash_probe)
            self.ctx.charge_events_op(
                self.op_id, inserted + len(deferred), cm.hash_insert
            )
            for i, pid in deferred:
                spilled[pid].delta[ports[i]].append(rows[i])
        return n_residual

    def finish(self, port: int = 0) -> None:
        self._mark_input_done(port)
        other = 1 - port
        if self.ctx.short_circuit and not self._input_done[other]:
            # Release the opposite side's buffered rows; future arrivals
            # on `other` keep probing table[port] but are not stored.
            # Spilled runs of `other` are kept: deferred rows of *this*
            # port still owe probes against them at completion.
            self._release_table(other)
            self._buffering[other] = False
        self.ctx.strategy.on_input_finished(self, port)
        if self.all_inputs_done:
            if self._spilled:
                self._replay_spilled()
            self._release_table(0)
            self._release_table(1)
            self.finish_output()

    def _release_table(self, port: int) -> None:
        stored = sum(len(rows) for rows in self._tables[port].values())
        if stored:
            self.account_state(-stored * self._row_bytes[port])
        self._tables[port].clear()
        if self._spilled is not None:
            counts = self._part_rows[port]
            for pid in range(len(counts)):
                counts[pid] = 0

    # -- spilling ----------------------------------------------------------

    def spillable_nbytes(self) -> int:
        if self._spilled is None or self._replaying:
            return 0
        return self._lease.nbytes

    def spill(self, need_bytes: int, ctx) -> int:
        """Move whole key-space partitions to disk, largest first."""
        if self._spilled is None or self._replaying:
            return 0
        freed = 0
        while freed < need_bytes:
            pid = self._pick_victim()
            if pid is None:
                break
            freed += self._spill_partition(pid, ctx)
        return freed

    def _pick_victim(self) -> Optional[int]:
        from repro.storage.spill import pick_spill_victim
        rb0, rb1 = self._row_bytes
        counts0, counts1 = self._part_rows
        return pick_spill_victim(
            [c0 * rb0 + c1 * rb1 for c0, c1 in zip(counts0, counts1)],
            self._spilled,
        )

    def _make_spool(self, pid: int):
        from repro.storage.spill import Spool

        def make(port, generation):
            return Spool(
                self.ctx, self.ctx.governor, self._row_bytes[port],
                "%s#%d.p%d.%s%d" % (
                    self.name, self.op_id, pid, generation, port,
                ),
            )
        return make

    def _spill_partition(self, pid: int, ctx) -> int:
        from repro.storage.spill import spill_partitions

        part = _PartitionSpill(self._make_spool(pid))
        self._spilled[pid] = part
        freed = 0
        for port in (0, 1):
            table = self._tables[port]
            doomed = [
                key for key, key_pid in zip(table, spill_partitions(table))
                if key_pid == pid
            ]
            moved = 0
            spool = part.frozen[port]
            row_bytes = self._row_bytes[port]
            for key in doomed:
                rows = table.pop(key)
                # Release before appending so the transfer never holds
                # the rows on both ledgers at once.
                self.account_state(-len(rows) * row_bytes)
                for row in rows:
                    moved += 1
                    spool.append(row)
            if moved:
                spool.flush()
                freed += moved * row_bytes
            self._part_rows[port][pid] = 0
        return freed

    def _replay_spilled(self) -> None:
        """Emit the owed matches of every spilled partition: all pairs
        except frozen-left × frozen-right, which streamed out before
        the partition left memory.  One partition is resident at a
        time (Grace recursion depth 1)."""
        cm = self.ctx.cost_model
        rb0, rb1 = self._row_bytes
        self._replaying = True
        try:
            for pid in sorted(self._spilled):
                part = self._spilled[pid]
                r_frozen: Dict = {}
                r_delta: Dict = {}
                loaded = 0
                for target, spool in (
                    (r_frozen, part.frozen[1]), (r_delta, part.delta[1]),
                ):
                    for row in spool.records():
                        key = self._key_of(row, 1)
                        target.setdefault(key, []).append(row)
                        loaded += 1
                if loaded:
                    self.ctx.charge_events_op(self.op_id, loaded, cm.hash_insert)
                    self.account_state(loaded * rb1)
                # Left delta probes everything on the right …
                self._probe_spilled(
                    part.delta[0], (r_frozen, r_delta), cm
                )
                # … while the frozen left only owes the right delta.
                self._probe_spilled(
                    part.frozen[0], (r_delta,), cm
                )
                if loaded:
                    self.account_state(-loaded * rb1)
                for spool in part.spools():
                    spool.discard()
            self._spilled.clear()
        finally:
            self._replaying = False

    def _probe_spilled(self, left_spool, right_tables, cm) -> None:
        """Probe ``right_tables`` with every row of ``left_spool`` and
        emit the matches as one page."""
        residual = self._residual
        probed = n_residual = 0
        out = []
        for row in left_spool.records():
            probed += 1
            key = self._key_of(row, 0)
            for table in right_tables:
                matches = table.get(key)
                if not matches:
                    continue
                for match in matches:
                    combined = row + match
                    if residual is not None:
                        n_residual += 1
                        if not residual(combined):
                            continue
                    out.append(combined)
        if probed:
            self.ctx.charge_events_op(self.op_id, probed, cm.hash_probe)
        if n_residual:
            self.ctx.charge_events_op(self.op_id, n_residual, cm.predicate_eval)
        if out:
            self.ctx.charge_events_op(self.op_id, len(out), cm.output_build)
            self.emit_rows(out)

    # -- state exposure ----------------------------------------------------

    def state_values(self, port: int, attr_name: str):
        idx = self.input_schemas[port].index_of(attr_name)
        for rows in self._tables[port].values():
            for row in rows:
                yield row[idx]
        if self._spilled:
            # Spilled partitions stream back page by page — summaries
            # are built over them without re-materialising the state.
            for pid in sorted(self._spilled):
                part = self._spilled[pid]
                for spool in (part.frozen[port], part.delta[port]):
                    for row in spool.records():
                        yield row[idx]

    def stored_count(self, port: int) -> int:
        count = sum(len(rows) for rows in self._tables[port].values())
        if self._spilled:
            for part in self._spilled.values():
                count += (
                    part.frozen[port].n_records
                    + part.delta[port].n_records
                )
        return count

    def state_complete(self, port: int) -> bool:
        # Complete iff the port finished while still buffering: if the
        # opposite input completed first, short-circuiting stopped this
        # side's inserts and its table is partial.
        return self._input_done[port] and self._buffering[port]
