"""Projection operator."""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator
from repro.exec.pages import ColumnBatch
from repro.expr.compiler import compile_expr_columns
from repro.expr.expressions import Expr


class PProject(Operator):
    """Pipelined projection: computes output columns per input row."""

    def __init__(
        self,
        ctx: ExecutionContext,
        op_id: int,
        in_schema: Schema,
        out_schema: Schema,
        outputs: Sequence[Tuple[str, Expr]],
    ):
        super().__init__(ctx, op_id, out_schema, [in_schema], "Project")
        #: The ``name := expr`` ASTs the column kernels are built from.
        self.outputs = tuple(outputs)
        self._rebuild_compiled()

    def _rebuild_compiled(self) -> None:
        in_schema = self.input_schemas[0]
        #: Column kernels: one gather per output column instead of one
        #: tuple build per input row.
        self._col_fns = [
            compile_expr_columns(expr, in_schema) for _, expr in self.outputs
        ]

    def push_page(self, page: ColumnBatch, port: int = 0) -> None:
        # ``output_build`` only for rows actually projected: a row
        # pruned by an injected AIP filter never builds an output tuple.
        cm = self.ctx.cost_model
        n_in = page.n_rows
        self.ctx.metrics.counters(self.op_id).tuples_in += n_in
        self.ctx.charge_events_op(self.op_id, n_in, cm.tuple_base)
        page = self.passes_filters_page(page, 0)
        if page.n_rows:
            self.ctx.charge_events_op(self.op_id, page.n_rows, cm.output_build)
            out = ColumnBatch(
                [fn(page.columns, page.n_rows) for fn in self._col_fns],
                page.n_rows, page.seq,
            )
            self._page_stats(n_in, page.n_rows)
            self.emit_page(out)

    def finish(self, port: int = 0) -> None:
        self._mark_input_done(port)
        self.finish_output()
