"""Selection operator."""

from __future__ import annotations

from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator
from repro.exec.pages import ColumnBatch
from repro.expr.compiler import compile_predicate_columns
from repro.expr.expressions import Expr


class PFilter(Operator):
    """Pipelined selection: forwards rows satisfying a predicate."""

    def __init__(
        self,
        ctx: ExecutionContext,
        op_id: int,
        schema: Schema,
        predicate: Expr,
    ):
        super().__init__(ctx, op_id, schema, [schema], "Filter")
        #: The predicate AST the selection kernel is compiled from.
        self.predicate = predicate
        self._rebuild_compiled()

    def _rebuild_compiled(self) -> None:
        #: Selection kernel: columns -> surviving row indices.
        self._select_columns = compile_predicate_columns(
            self.predicate, self.input_schemas[0]
        )

    def push_page(self, page: ColumnBatch, port: int = 0) -> None:
        # Bill predicate evaluation only for rows the predicate actually
        # sees: rows pruned by an injected AIP filter never reach it,
        # and charging them would understate AIP's CPU savings.
        cm = self.ctx.cost_model
        n_in = page.n_rows
        self.ctx.metrics.counters(self.op_id).tuples_in += n_in
        self.ctx.charge_events_op(self.op_id, n_in, cm.tuple_base)
        page = self.passes_filters_page(page, 0)
        if not page.n_rows:
            return
        self.ctx.charge_events_op(self.op_id, page.n_rows, cm.predicate_eval)
        selection = self._select_columns(page.columns, page.n_rows)
        self._page_stats(n_in, len(selection))
        self.emit_page(page.select(selection))

    def finish(self, port: int = 0) -> None:
        self._mark_input_done(port)
        self.finish_output()
