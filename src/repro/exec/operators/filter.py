"""Selection operator."""

from __future__ import annotations

from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator, Row
from repro.exec.pages import ColumnBatch
from repro.expr.compiler import compile_predicate, compile_predicate_columns
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
        #: The predicate AST both compiled forms below are built from.
        self.predicate = predicate
        self._rebuild_compiled()

    def _rebuild_compiled(self) -> None:
        schema = self.input_schemas[0]
        self._predicate = compile_predicate(self.predicate, schema)
        #: Selection kernel for the page path: columns -> surviving
        #: row indices, accepting exactly what ``_predicate`` accepts.
        self._select_columns = compile_predicate_columns(
            self.predicate, schema
        )

    def push(self, row: Row, port: int = 0) -> None:
        cm = self.ctx.cost_model
        self.ctx.metrics.counters(self.op_id).tuples_in += 1
        # Bill predicate evaluation only when the predicate actually
        # runs: rows pruned by an injected AIP filter below never reach
        # it, and charging them would understate AIP's CPU savings.
        self.ctx.charge_op(self.op_id, cm.tuple_base)
        if not self.passes_filters(row, 0):
            return
        self.ctx.charge_op(self.op_id, cm.predicate_eval)
        if self._predicate(row):
            self.emit(row)

    def push_page(self, page: ColumnBatch, port: int = 0) -> None:
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
