"""Partition merge: the master-side gather of a fanned-out scan.

A logical scan of a partitioned table translates into one physical scan
per partition plus one :class:`PMerge` that unions their streams in
arrival order.  The merge is a zero-cost demultiplexer — the per-tuple
receive work is already billed by each partition scan's ``scan_read``,
so a table split into N=1 partition is bit-identical (rows, clock, peak
state, counters) to the same table placed whole at one site.

The merge carries the logical scan's ``node_id``, so everything that
addresses the scan by id — downstream wiring, the AIP candidate index,
the estimator's feedback loop — resolves to it transparently; the
per-partition scans register under fresh ids of their own (they are the
injection points for shipped and locally injected filters).

Injected semijoin filters are held on virtual port 0 and applied to
rows from *every* partition, mirroring how a single scan's port-0
filters vet its whole stream.
"""

from __future__ import annotations

from typing import List

from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator
from repro.exec.operators.scan import PScan
from repro.exec.pages import ColumnBatch


class PMerge(Operator):
    """Unions N partition scans of one table into one stream."""

    def __init__(
        self,
        ctx: ExecutionContext,
        op_id: int,
        schema: Schema,
        n_partitions: int,
        table_name: str = "",
    ):
        # Operator.__init__ sizes the children/input bookkeeping from
        # ``n_inputs``; set the instance attribute before delegating.
        self.n_inputs = n_partitions
        super().__init__(
            ctx, op_id, schema, [schema] * n_partitions,
            "Merge(%s/%d)" % (table_name, n_partitions),
        )
        self.table_name = table_name
        #: Partition pages of the current merged run (:meth:`flush_stash`).
        self._stash: List[ColumnBatch] = []

    @property
    def partitions(self) -> List[PScan]:
        """The per-partition scans feeding this merge, in index order."""
        return [child for child in self.children if child is not None]

    @property
    def exhausted(self) -> bool:
        """True once every partition has drained (scan-like view for
        the AIP layer's liveness checks)."""
        return self._output_done

    # -- dataflow --------------------------------------------------------

    def push_page(self, page, port: int = 0) -> None:
        if page.seq is not None:
            # A merged run: other partitions' pages may still come.
            self._stash.append(page)
            return
        self._merge_page(page)

    def flush_stash(self) -> None:
        """End of a merged run: forward the partitions' stashed pages as
        one page, rows in ``seq`` order — the run's arrival order."""
        if not self._stash:
            return
        stash, self._stash = self._stash, []
        if len(stash) == 1:
            self._merge_page(stash[0])
            return
        seqs, rows = [], []
        for page in stash:
            seqs.extend(page.seq)
            rows.extend(page.rows())
        order = sorted(range(len(seqs)), key=seqs.__getitem__)
        self._merge_page(ColumnBatch.from_rows(
            [rows[i] for i in order], len(self.out_schema),
            [seqs[i] for i in order],
        ))

    def _merge_page(self, page) -> None:
        # Filters live on virtual port 0 whichever partition delivered
        # the rows.
        n_in = page.n_rows
        self.ctx.metrics.counters(self.op_id).tuples_in += n_in
        page = self.passes_filters_page(page, 0)
        if page.n_rows:
            self._page_stats(n_in, page.n_rows)
            self.emit_page(page)

    def finish(self, port: int = 0) -> None:
        self._mark_input_done(port)
        if self.all_inputs_done:
            self.finish_output()
