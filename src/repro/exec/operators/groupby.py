"""Hash-based aggregation.

Group-by is the blocking, stateful operator that motivates much of the
paper: its hash state is both an obstacle (nothing flows until the
input completes) and an opportunity (once complete, the group keys are
a perfect AIP set — Example 3.2 builds a Bloom filter from "the state
in the aggregation operator").

Under a memory governor the operator spills Grace-style: a partition
of the group-key space moves to disk as a run of pickled group records
(key values + accumulator state), and subsequent rows for that
partition are appended raw to a delta run without touching the hash
table.  When the input completes, each spilled partition is merged —
groups reloaded, delta rows replayed — one partition at a time, and
the merged records are written back to a single consolidated run so
that ``state_values`` (the AIP build path) and final emission both
stream it from disk instead of re-materialising every partition at
once.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.common.sizing import group_overhead_nbytes
from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator, Row
from repro.expr.aggregates import AggregateSpec
from repro.expr.compiler import compile_expr, compile_expr_columns


class PGroupBy(Operator):
    """Hash aggregation over zero or more key columns."""

    stateful = True

    def __init__(
        self,
        ctx: ExecutionContext,
        op_id: int,
        in_schema: Schema,
        out_schema: Schema,
        keys: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ):
        super().__init__(ctx, op_id, out_schema, [in_schema], "GroupBy")
        self._key_indices = tuple(in_schema.index_of(k) for k in keys)
        self._specs = tuple(aggregates)
        self._rebuild_compiled()
        #: group key -> (key values tuple, [accumulators])
        self._groups: Dict = {}
        self.keys = tuple(keys)
        self._group_bytes = (
            group_overhead_nbytes(len(self._key_indices))
            + sum(s.make_accumulator().byte_size() for s in aggregates)
        )
        if self._lease is not None:
            from repro.storage.spill import N_SPILL_PARTITIONS
            self._in_row_bytes = in_schema.row_byte_size()
            #: pid -> (group_spool, delta_spool) while streaming.
            self._spilled: Dict[int, tuple] = {}
            #: pid -> consolidated spool once the input finished.
            self._merged: Dict[int, object] = {}
            self._part_groups = [0] * N_SPILL_PARTITIONS
            self._replaying = False
            #: Rows per lease request in the page kernel: each makes at
            #: most one group, so a chunk is one governor page of groups.
            self._chunk_rows = ctx.governor.page_records_for(
                self._group_bytes
            )
        else:
            self._spilled = None
            self._merged = None

    def _rebuild_compiled(self) -> None:
        in_schema = self.input_schemas[0]
        self._agg_fns = tuple(
            compile_expr(s.input, in_schema) if s.input is not None else None
            for s in self._specs
        )
        #: Column kernels for the page path: aggregate inputs evaluate
        #: once per column batch instead of once per row per spec.
        self._agg_col_fns = tuple(
            compile_expr_columns(s.input, in_schema)
            if s.input is not None else None
            for s in self._specs
        )

    def _key_of(self, row: Row):
        indices = self._key_indices
        if len(indices) == 1:
            return row[indices[0]]
        return tuple(row[i] for i in indices)

    def push_page(self, page, port: int = 0) -> None:
        """Page kernel: each surviving row probes its group (made on
        first sight) and updates the group's accumulators.  Group keys
        come straight off the key column(s) and aggregate inputs
        evaluate column-at-a-time; the page's rows are never
        re-materialised (a governed page's rows only when some go to a
        spilled partition's delta run)."""
        cm = self.ctx.cost_model
        metrics = self.ctx.metrics
        n_in = page.n_rows
        metrics.counters(self.op_id).tuples_in += n_in
        self.ctx.charge_events_op(self.op_id, n_in, cm.tuple_base)
        page = self.passes_filters_page(page, 0)
        n = page.n_rows
        if not n:
            return

        indices = self._key_indices
        single = len(indices) == 1
        if single:
            keys = page.columns[indices[0]]
        elif indices:
            keys = list(zip(*[page.columns[i] for i in indices]))
        else:
            keys = [()] * n  # keyless aggregate: one global group
        cols = page.columns
        specs = self._specs
        val_cols = tuple(
            fn(cols, n) if fn is not None else None
            for fn in self._agg_col_fns
        )
        if self._lease is None:
            self.ctx.charge_events_op(self.op_id, n, cm.hash_probe)
            new_groups = self._aggregate(range(n), keys, val_cols)
            if new_groups:
                self.ctx.charge_events_op(
                    self.op_id, new_groups, cm.hash_insert
                )
                metrics.adjust_state(
                    self.op_id, new_groups * self._group_bytes
                )
            if specs:
                self.ctx.charge_events_op(
                    self.op_id, n * len(specs), cm.agg_update
                )
        else:
            self._aggregate_governed(page, keys, val_cols)
        self.ctx.strategy.after_tuples_page(self, 0, page)
        self._page_stats(n_in, n)

    def _aggregate(self, positions, keys, val_cols) -> int:
        """Fold the page rows at ``positions`` into their groups;
        returns how many groups were created."""
        single = len(self._key_indices) == 1
        specs = self._specs
        groups = self._groups
        new_groups = 0
        for i in positions:
            key = keys[i]
            group = groups.get(key)
            if group is None:
                accumulators = [s.make_accumulator() for s in specs]
                group = ((key,) if single else key, accumulators)
                groups[key] = group
                new_groups += 1
            for vals, acc in zip(val_cols, group[1]):
                acc.add(vals[i] if vals is not None else None)
        return new_groups

    def _aggregate_governed(self, page, keys, val_cols) -> None:
        """The governed kernel: :meth:`_aggregate` one governor page of
        rows at a time, growing the lease for a chunk's new groups
        before they are made.  A row whose key partition is spilled at
        that point goes raw to the partition's delta run, charged a
        ``hash_insert``, and is re-aggregated at completion."""
        from repro.storage.spill import spill_partitions

        cm = self.ctx.cost_model
        groups = self._groups
        spilled = self._spilled
        pids = spill_partitions(keys)

        def route(at, end):
            kept, deferred, fresh = [], [], set()
            for i in range(at, min(end, len(keys))):
                if pids[i] in spilled:
                    deferred.append(i)
                else:
                    kept.append(i)
                    if keys[i] not in groups:
                        fresh.add(keys[i])
            return kept, deferred, fresh, len(fresh) * self._group_bytes

        rows = None
        step = self._chunk_rows
        for at in range(0, len(keys), step):
            kept, deferred, fresh, nbytes = self.reserve_routed(
                lambda: route(at, at + step)
            )
            self._aggregate(kept, keys, val_cols)
            for pid in spill_partitions(fresh):
                self._part_groups[pid] += 1
            self.ctx.metrics.adjust_state(self.op_id, nbytes)
            self.ctx.charge_events_op(self.op_id, len(kept), cm.hash_probe)
            self.ctx.charge_events_op(
                self.op_id, len(fresh) + len(deferred), cm.hash_insert
            )
            if self._specs:
                self.ctx.charge_events_op(
                    self.op_id, len(kept) * len(self._specs), cm.agg_update
                )
            if deferred:
                rows = rows or page.rows()
                for i in deferred:
                    spilled[pids[i]][1].append(rows[i])

    def finish(self, port: int = 0) -> None:
        self._mark_input_done(port)
        if self._spilled:
            # Merge every spilled partition into its consolidated run
            # *before* the strategy hook, so AIP sets built at
            # on_input_finished stream final, complete state.
            self._consolidate_spilled()
        self.ctx.strategy.on_input_finished(self, 0)
        if (
            not self._key_indices
            and not self._groups
            and not self._merged
        ):
            # SQL semantics: a keyless aggregate over an empty input
            # still produces one row (SUM -> 0-or-None per accumulator).
            self._emit_groups([((), [
                s.make_accumulator() for s in self._specs
            ])])
        self._emit_groups(self._groups.values())
        if self._merged:
            for pid in sorted(self._merged):
                spool = self._merged[pid]
                self._emit_groups(
                    group[1:] for group in spool.records()
                )
                spool.discard()
            self._merged.clear()
        self._release_state()
        self.finish_output()

    def _emit_groups(self, groups) -> None:
        """Emit ``(key_values, accumulators)`` groups as one page."""
        rows = [
            key_values + tuple(a.result() for a in accumulators)
            for key_values, accumulators in groups
        ]
        if rows:
            self.ctx.charge_events_op(
                self.op_id, len(rows), self.ctx.cost_model.output_build
            )
            self.emit_rows(rows)

    def _release_state(self) -> None:
        if self._groups:
            self.account_state(-len(self._groups) * self._group_bytes)
            self._groups.clear()

    # -- spilling ----------------------------------------------------------

    def spillable_nbytes(self) -> int:
        if self._spilled is None or self._replaying:
            return 0
        return self._lease.nbytes

    def spill(self, need_bytes: int, ctx) -> int:
        if self._spilled is None or self._replaying:
            return 0
        from repro.storage.spill import (
            Spool, pick_spill_victim, spill_partitions,
        )

        freed = 0
        while freed < need_bytes:
            best = pick_spill_victim(self._part_groups, self._spilled)
            if best is None:
                break
            label = "%s#%d.p%d" % (self.name, self.op_id, best)
            group_spool = Spool(
                self.ctx, self.ctx.governor, self._group_bytes,
                label + ".groups",
            )
            delta_spool = Spool(
                self.ctx, self.ctx.governor, self._in_row_bytes,
                label + ".delta",
            )
            self._spilled[best] = (group_spool, delta_spool)
            moved = 0
            for key in [
                k for k, pid in zip(self._groups, spill_partitions(self._groups))
                if pid == best
            ]:
                key_values, accumulators = self._groups.pop(key)
                self.account_state(-self._group_bytes)
                group_spool.append((key, key_values, accumulators))
                moved += 1
            group_spool.flush()
            self._part_groups[best] = 0
            if moved:
                freed += moved * self._group_bytes
        return freed

    def _merge_partition(self, pid: int) -> Dict:
        """Reload one spilled partition's groups and replay its delta
        rows; returns the merged ``key -> (key_values, accumulators)``
        dict (caller accounts and releases its residency)."""
        cm = self.ctx.cost_model
        group_spool, delta_spool = self._spilled[pid]
        merged: Dict = {}
        for key, key_values, accumulators in group_spool.records():
            merged[key] = (key_values, accumulators)
            self.ctx.charge_op(self.op_id, cm.hash_insert)
            self.account_state(self._group_bytes)
        replayed = 0
        for row in delta_spool.records():
            replayed += 1
            key = self._key_of(row)
            group = merged.get(key)
            if group is None:
                accumulators = [s.make_accumulator() for s in self._specs]
                group = (
                    tuple(row[i] for i in self._key_indices), accumulators
                )
                merged[key] = group
                self.ctx.charge_op(self.op_id, cm.hash_insert)
                self.account_state(self._group_bytes)
            for fn, acc in zip(self._agg_fns, group[1]):
                acc.add(fn(row) if fn is not None else None)
        if replayed:
            self.ctx.charge_events_op(self.op_id, replayed, cm.hash_probe)
            if self._specs:
                self.ctx.charge_events_op(self.op_id, 
                    replayed * len(self._specs), cm.agg_update
                )
        return merged

    def _consolidate_spilled(self) -> None:
        """Merge each spilled partition (one at a time) into a single
        consolidated run per partition."""
        from repro.storage.spill import Spool

        self._replaying = True
        try:
            for pid in sorted(self._spilled):
                merged = self._merge_partition(pid)
                spool = Spool(
                    self.ctx, self.ctx.governor, self._group_bytes,
                    "%s#%d.p%d.merged" % (self.name, self.op_id, pid),
                )
                for key, (key_values, accumulators) in merged.items():
                    self.account_state(-self._group_bytes)
                    spool.append((key, key_values, accumulators))
                spool.flush()
                group_spool, delta_spool = self._spilled[pid]
                group_spool.discard()
                delta_spool.discard()
                self._merged[pid] = spool
            self._spilled.clear()
        finally:
            self._replaying = False

    # -- state exposure ----------------------------------------------------

    def _spilled_group_records(self):
        """Stream every spilled group record (merged runs after the
        input finished; merge-on-the-fly before)."""
        if self._merged:
            for pid in sorted(self._merged):
                yield from self._merged[pid].records()
        if self._spilled:
            self._replaying = True
            try:
                for pid in sorted(self._spilled):
                    merged = self._merge_partition(pid)
                    try:
                        for key, (key_values, accs) in merged.items():
                            yield key, key_values, accs
                    finally:
                        if merged:
                            self.account_state(
                                -len(merged) * self._group_bytes
                            )
            finally:
                self._replaying = False

    def state_values(self, port: int, attr_name: str):
        """Values of a key or aggregate output attribute across the
        buffered groups.  Aggregate outputs become available as AIP set
        material once the input completes (e.g. the set of per-part MIN
        supply costs, which can prune a parent's PARTSUPP rows)."""
        if attr_name in self.keys:
            pos = self.keys.index(attr_name)
            for key_values, _ in self._groups.values():
                yield key_values[pos]
            if self._spilled or self._merged:
                for _key, key_values, _accs in self._spilled_group_records():
                    yield key_values[pos]
            return
        agg_names = [s.output_name for s in self._specs]
        pos = agg_names.index(attr_name)
        for _, accumulators in self._groups.values():
            yield accumulators[pos].result()
        if self._spilled or self._merged:
            for _key, _kv, accumulators in self._spilled_group_records():
                yield accumulators[pos].result()

    def stored_count(self, port: int) -> int:
        count = len(self._groups)
        if self._spilled:
            for group_spool, _delta in self._spilled.values():
                # Delta rows may add unseen groups; the run count is a
                # lower bound, which only makes AIP sizing conservative.
                count += group_spool.n_records
        if self._merged:
            for spool in self._merged.values():
                count += spool.n_records
        return count

    def state_complete(self, port: int) -> bool:
        return self._input_done[0]
