"""Result sink."""

from __future__ import annotations

from typing import List

from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.operators.base import Operator, Row


class POutput(Operator):
    """Collects final result rows at the plan root."""

    def __init__(self, ctx: ExecutionContext, op_id: int, schema: Schema):
        super().__init__(ctx, op_id, schema, [schema], "Output")
        self.rows: List[Row] = []
        self.finished = False
        #: Optional ``fn(sink)`` invoked when the sink completes; the
        #: concurrent harness uses it to record per-plan finish clocks.
        self.finish_listener = None

    def push_page(self, page, port: int = 0) -> None:
        n = page.n_rows
        self.ctx.metrics.counters(self.op_id).tuples_in += n
        self.ctx.charge_events_op(self.op_id, n, self.ctx.cost_model.tuple_base)
        self.rows.extend(page.rows())
        self.ctx.metrics.result_rows += n
        self._page_stats(n, n)

    def finish(self, port: int = 0) -> None:
        self._mark_input_done(port)
        self.finished = True
        if self.finish_listener is not None:
            self.finish_listener(self)
