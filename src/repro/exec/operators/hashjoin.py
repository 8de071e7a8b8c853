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
from repro.storage.spill import PartitionLedger, spill_partitions


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
        #: A spilled partition's runs: per side, the rows its table
        #: held (frozen), then the rows that arrived later (delta).
        rb0, rb1 = self._row_bytes
        self._ledger = PartitionLedger.open(self, (
            ("frozen0", rb0), ("frozen1", rb1),
            ("delta0", rb0), ("delta1", rb1),
        ), ports=2)

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
        A single page is processed as it stands, with no concatenated
        key, row or port lists.  A governed join goes through
        :meth:`_join_governed` instead of charging probes, inserts and
        state up front."""
        if len(pages) == 1:
            port, page = pages[0]
            page = self._accept(port, page)
            if page is None:
                return
            n = page.n_rows
            accepted = [(port, page)]
            keys = self._page_keys(page, port)
            rows = page.rows()
            ports = [port] * n
            seqs = page.seq
            order = range(n)
        else:
            seqs = [] if pages[0][1].seq is not None else None
            keys, rows, ports, accepted = [], [], [], []
            for port, page in pages:
                page = self._accept(port, page)
                if page is None:
                    continue
                keys.extend(self._page_keys(page, port))
                rows.extend(page.rows())
                ports.extend([port] * page.n_rows)
                if seqs is not None:
                    seqs.extend(page.seq)
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
        if self._lease is not None:
            n_residual = self._join_governed(order, batch)
        else:
            n_residual = self._probe_insert(order, batch)

        for port, page in accepted:
            self.ctx.strategy.after_tuples_page(self, port, page)
        cm = self.ctx.cost_model
        if n_residual:
            self.ctx.charge_events_op(self.op_id, n_residual, cm.predicate_eval)
        if out:
            self.ctx.charge_events_op(self.op_id, len(out), cm.output_build)
            # Output tuples are combined row-at-a-time, so the page that
            # leaves is row-born (the list is wrapped, not transposed).
            self.emit_page(
                ColumnBatch.from_rows(out, len(self.out_schema), out_seq)
            )

    def _accept(self, port: int, page):
        """Count and vet one arriving page; returns the surviving page,
        or None when no row survives.  An ungoverned join charges the
        survivors' probes, inserts and state here."""
        cm = self.ctx.cost_model
        n_in = page.n_rows
        self.ctx.metrics.counters(self.op_id).tuples_in += n_in
        self.ctx.charge_events_op(self.op_id, n_in, cm.tuple_base)
        page = self.passes_filters_page(page, port)
        n = page.n_rows
        if not n:
            return None
        self._page_stats(n_in, n)
        if self._lease is None:
            self.ctx.charge_events_op(self.op_id, n, cm.hash_probe)
            if self._buffering[port]:
                self.ctx.charge_events_op(self.op_id, n, cm.hash_insert)
                self.ctx.metrics.adjust_state(
                    self.op_id, n * self._row_bytes[port]
                )
        return page

    def _page_keys(self, page, port: int):
        """The page's join keys: the key column itself for one key,
        else tuples zipped from the key columns."""
        indices = self._key_indices[port]
        if len(indices) == 1:
            return page.columns[indices[0]]
        return list(zip(*[page.columns[i] for i in indices]))

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
        keys, rows, ports = batch[:3]
        cm = self.ctx.cost_model
        buffering = self._buffering
        row_bytes = self._row_bytes
        ledger = self._ledger
        spilled = ledger.spilled
        order = list(order)
        pids = spill_partitions([keys[i] for i in order])

        def route(at, end):
            kept, kept_pids, deferred = order[at:end], pids[at:end], []
            if spilled:
                chunk = zip(kept, kept_pids)
                kept, kept_pids = [], []
                for i, pid in chunk:
                    if pid in spilled:
                        deferred.append((i, pid))
                    else:
                        kept.append(i)
                        kept_pids.append(pid)
            kept_ports = [ports[i] for i in kept]
            nbytes = sum(
                kept_ports.count(port) * row_bytes[port]
                for port in (0, 1) if buffering[port]
            )
            return kept, kept_pids, kept_ports, deferred, nbytes

        n_residual = 0
        step = ledger.chunk_rows
        tables = self._tables
        counts, indexed = ledger.counts, ledger.keys
        for at in range(0, len(order), step):
            kept, kept_pids, kept_ports, deferred, nbytes = (
                ledger.reserve_routed(lambda: route(at, at + step))
            )
            n_residual += self._probe_insert(kept, batch)
            inserted = 0
            for i, pid, port in zip(kept, kept_pids, kept_ports):
                if buffering[port]:
                    counts[port][pid] += 1
                    inserted += 1
                    # A row heading its bucket made the key: index it.
                    if tables[port][keys[i]][0] is rows[i]:
                        indexed[port][pid].append(keys[i])
            self.ctx.metrics.adjust_state(self.op_id, nbytes)
            self.ctx.charge_events_op(self.op_id, len(kept), cm.hash_probe)
            self.ctx.charge_events_op(
                self.op_id, inserted + len(deferred), cm.hash_insert
            )
            for i, pid in deferred:
                # Runs 2 and 3 are the delta runs of sides 0 and 1.
                spilled[pid][2 + ports[i]].append(rows[i])
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
        if self._ledger is not None:
            self._ledger.release(port)

    # -- spilling ----------------------------------------------------------

    def _pop_partition(self, port: int, keys) -> List[Row]:
        """Spill hook: pop the rows under ``keys`` out of ``port``'s
        table.  A row object that arrived again indexed its key again;
        its bucket moves once."""
        table = self._tables[port]
        moved = []
        for key in keys:
            moved.extend(table.pop(key, ()))
        return moved

    def _replay_spilled(self) -> None:
        """Emit the owed matches of every spilled partition: all pairs
        except frozen-left × frozen-right, which streamed out before
        the partition left memory.  One partition is resident at a
        time (Grace recursion depth 1); a partition whose right side
        outgrows the budget is replayed in passes (:meth:`_right_passes`),
        each probed by the partition's whole left side."""
        cm = self.ctx.cost_model
        rb1 = self._row_bytes[1]
        ledger = self._ledger
        with ledger.replaying():
            for pid in sorted(ledger.spilled):
                frozen0, frozen1, delta0, delta1 = ledger.spilled[pid]
                for r_frozen, r_delta, loaded in self._right_passes(
                    frozen1, delta1
                ):
                    if loaded:
                        self.ctx.charge_events_op(
                            self.op_id, loaded, cm.hash_insert
                        )
                        self.account_state(loaded * rb1)
                    # Left delta probes everything on the right …
                    self._probe_spilled(delta0, (r_frozen, r_delta), cm)
                    # … while the frozen left only owes the right delta.
                    self._probe_spilled(frozen0, (r_delta,), cm)
                    if loaded:
                        self.account_state(-loaded * rb1)
                ledger.drop(pid)

    def _right_passes(self, frozen1, delta1):
        """Load a spilled partition's right runs into hash tables, one
        replay pass at a time; yields ``(frozen, delta, n_rows)``.  A
        pass holds as many rows as the ledger's
        :meth:`~repro.storage.spill.PartitionLedger.replay_records`
        allows, so a right side that fits is one pass, loaded whole
        before its rows are accounted."""
        rb1 = self._row_bytes[1]
        remaining = frozen1.n_records + delta1.n_records
        most = self._ledger.replay_records(rb1, remaining)
        tables = ({}, {})
        loaded = 0
        for generation, spool in enumerate((frozen1, delta1)):
            for row in spool.records():
                key = self._key_of(row, 1)
                tables[generation].setdefault(key, []).append(row)
                loaded += 1
                if loaded == most and loaded < remaining:
                    yield tables + (loaded,)
                    remaining -= loaded
                    most = self._ledger.replay_records(rb1, remaining)
                    tables = ({}, {})
                    loaded = 0
        yield tables + (loaded,)

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
        # Spilled partitions stream back page by page — summaries are
        # built over them without re-materialising the state.
        spilled = self._spilled
        for pid in sorted(spilled):
            runs = spilled[pid]
            for spool in (runs[port], runs[2 + port]):
                for row in spool.records():
                    yield row[idx]

    def stored_count(self, port: int) -> int:
        count = sum(len(rows) for rows in self._tables[port].values())
        for runs in self._spilled.values():
            count += runs[port].n_records + runs[2 + port].n_records
        return count

    def state_complete(self, port: int) -> bool:
        # Complete iff the port finished while still buffering: if the
        # opposite input completed first, short-circuiting stopped this
        # side's inserts and its table is partial.
        return self._input_done[port] and self._buffering[port]
