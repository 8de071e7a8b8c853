"""Physical operator base class.

Operators form a tree mirroring the logical plan.  Data flows *up*:
children call ``parent.push_page(page, port)`` with a
:class:`~repro.exec.pages.ColumnBatch` and, at end of stream,
``parent.finish(port)``.  The engine only ever drives scans; everything
else reacts.

Two AIP-specific mechanisms live here because the paper implements
them inside the query operators (Section V-B):

* **injected semijoin filters** — "we extended our join and group-by
  implementations to support registration of new semijoin operators on
  the fly; these semijoins are called when a tuple is received and
  before it is processed internally by the operator";
* **state exposure** — "all stateful operators employ standardized
  data structures ... for preserving intermediate state, which they
  expose to the execution engine for use in AIP"
  (:meth:`Operator.state_values`, :meth:`Operator.stored_count`).
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, List, Optional, Tuple

from repro.common.errors import ExecutionError
from repro.data.schema import Schema
from repro.exec.context import ExecutionContext
from repro.exec.pages import ColumnBatch

Row = Tuple


class InjectedFilter:
    """A semijoin filter registered on one operator input port.

    ``_verdicts`` remembers the summary's verdict on every key it has
    probed, for the life of the filter, so a page probes the summary
    only for keys no earlier page carried.  That is sound because a
    filter's summary never changes: published AIP sets are frozen, and
    a merge installs a new filter (with an empty memo) in place of the
    old one."""

    __slots__ = (
        "key_index", "attr_name", "summary", "label", "pruned", "probed",
        "_verdicts",
    )

    def __init__(self, key_index: int, attr_name: str, summary, label: str):
        self.key_index = key_index
        self.attr_name = attr_name
        self.summary = summary
        self.label = label
        self.pruned = 0
        self.probed = 0
        self._verdicts: dict = {}

    def passes_page(self, page):
        """Probe a column batch: the key column's unseen keys feed the
        summary's batch probe (no per-row gather), and survivors come
        back as a selection of the page.  ``probed`` counts every row
        probed and ``pruned`` every row the summary rejected."""
        n_rows = page.n_rows
        if not n_rows:
            return page
        self.probed += n_rows
        column = page.columns[self.key_index]
        verdicts = self._verdicts
        try:
            selection = list(
                compress(range(n_rows), map(verdicts.__getitem__, column))
            )
        except KeyError:  # keys no earlier page carried
            unseen = list(set(column).difference(verdicts))
            verdicts.update(
                zip(unseen, self.summary.might_contain_many(unseen))
            )
            selection = list(
                compress(range(n_rows), map(verdicts.__getitem__, column))
            )
        if len(selection) == n_rows:
            return page
        self.pruned += n_rows - len(selection)
        return page.select(selection)


class Operator:
    """Base class for all physical operators."""

    #: Number of input ports (overridden by joins).
    n_inputs = 1
    #: Whether this operator buffers state usable for AIP.
    stateful = False

    def __init__(
        self,
        ctx: ExecutionContext,
        op_id: int,
        out_schema: Schema,
        input_schemas: List[Schema],
        name: str,
    ):
        self.ctx = ctx
        self.op_id = op_id
        self.out_schema = out_schema
        self.input_schemas = input_schemas
        self.name = name
        #: Consumers: ``(operator, port)`` pairs.  Plans are usually
        #: trees (one consumer), but shared subexpressions — e.g. the
        #: outer query feeding both the final join and a magic filter
        #: set — give an operator several parents.
        self.parents: List[Tuple["Operator", int]] = []
        self.children: List[Optional["Operator"]] = [None] * self.n_inputs
        # Scans (n_inputs == 0) still accept engine-side filters on a
        # virtual port 0 — AIP semijoins are injected "after X is read".
        self._filters: List[List[InjectedFilter]] = [
            [] for _ in range(max(1, self.n_inputs))
        ]
        self._input_done: List[bool] = [False] * self.n_inputs
        self._output_done = False
        # Under a memory governor every stateful operator accounts its
        # buffered bytes on a lease, and its PartitionLedger (opened by
        # the subclass) is its spill handler; un-governed runs carry
        # only these Nones (bit-identical paths).
        governor = ctx.governor
        if governor is not None and self.stateful:
            self._lease = governor.lease(self.name)
        else:
            self._lease = None
        self._ledger = None

    def _rebuild_compiled(self) -> None:
        """Compile the operator's expression closures from its stored
        ASTs and schemas.  Called at construction; subclasses with
        compiled state override it."""

    # -- wiring ---------------------------------------------------------

    def connect_child(self, child: "Operator", port: int) -> None:
        if not 0 <= port < self.n_inputs:
            raise ExecutionError(
                "operator %s has no input port %d" % (self.name, port)
            )
        self.children[port] = child
        child.parents.append((self, port))

    def walk(self) -> Iterable["Operator"]:
        """All operators in the DAG rooted here, each exactly once."""
        seen = set()
        stack: List["Operator"] = [self]
        while stack:
            op = stack.pop()
            if op.op_id in seen:
                continue
            seen.add(op.op_id)
            yield op
            for child in op.children:
                if child is not None:
                    stack.append(child)

    # -- filter registration (AIP injection point) ----------------------

    def register_filter(
        self, port: int, attr_name: str, summary, label: str = ""
    ) -> InjectedFilter:
        """Install a semijoin filter on ``port``; arriving tuples whose
        ``attr_name`` value is rejected by ``summary`` are discarded
        before the operator processes them."""
        schema = self.input_schemas[port] if self.input_schemas else self.out_schema
        f = InjectedFilter(schema.index_of(attr_name), attr_name, summary, label)
        self._filters[port].append(f)
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.instant(
                "aip.inject", "aip", self.ctx.metrics.clock_ticks,
                {
                    "op": self.name, "port": port, "attr": attr_name,
                    "label": label,
                },
            )
        return f

    def replace_filter(
        self, port: int, old: InjectedFilter, new: InjectedFilter
    ) -> None:
        """Swap a weaker filter for a strictly stronger one (Section
        IV-B: an existing filter over the same key may be directly
        replaced)."""
        filters = self._filters[port]
        filters[filters.index(old)] = new

    def passes_filters_page(self, page, port: int):
        """Vet a column batch against the injected filters, returning
        the surviving page (possibly ``page`` itself, zero-copy, when
        nothing was pruned).  Each filter bills one probe per row still
        alive when it is reached (pruned rows never probe later
        filters), as probing row by row would."""
        filters = self._filters[port]
        if not filters:
            return page
        cost = self.ctx.cost_model.semijoin_probe
        n_in = page.n_rows
        alive = page
        for f in filters:
            self.ctx.charge_events_op(self.op_id, alive.n_rows, cost)
            alive = f.passes_page(alive)
            if not alive.n_rows:
                break
        pruned = n_in - alive.n_rows
        if pruned:
            self.ctx.metrics.counters(self.op_id).tuples_pruned += pruned
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.instant(
                "aip.probe:%s" % self.name, "aip",
                self.ctx.metrics.clock_ticks,
                {"port": port, "rows": n_in, "pruned": pruned},
            )
        return alive

    # -- dataflow --------------------------------------------------------

    def push_page(self, page, port: int = 0) -> None:
        """Process a :class:`~repro.exec.pages.ColumnBatch` arriving on
        ``port``: the only dataflow entry point.  Kernels keep the
        paper's per-row semantics (each row is vetted by the injected
        filters before the operator processes it) and charge costs in
        bulk."""
        raise NotImplementedError

    def finish(self, port: int = 0) -> None:
        raise NotImplementedError

    def emit_page(self, page) -> None:
        """Forward a column batch of output rows, preserving order; a
        shared subexpression (DAG plans) hands the page to each parent
        in turn."""
        if not page.n_rows:
            return
        self.ctx.metrics.counters(self.op_id).tuples_out += page.n_rows
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.instant(
                "emit:%s" % self.name, "op", self.ctx.metrics.clock_ticks,
                {"rows": page.n_rows},
            )
        for parent, port in self.parents:
            parent.push_page(page, port)

    def emit_rows(self, rows: List[Row]) -> None:
        """Forward rows built outside a page kernel — a blocking
        operator's final output, a spill replay — as one page."""
        self.emit_page(ColumnBatch.from_rows(rows, len(self.out_schema)))

    def _page_stats(self, rows_in: int, selected: int) -> None:
        """Record one page-kernel invocation: the page-path-only
        counters and, when tracing, a ``page:<op>`` instant.  Pure
        observation — never touches the clock or tuple counters."""
        metrics = self.ctx.metrics
        metrics.pages_pushed += 1
        metrics.rows_selected += selected
        tracer = self.ctx.tracer
        if tracer is not None:
            tracer.instant(
                "page:%s" % self.name, "op", metrics.clock_ticks,
                {"rows": rows_in, "selected": selected},
            )

    def finish_output(self) -> None:
        if self._output_done:
            return
        self._output_done = True
        if self._lease is not None:
            self._ledger.close()
            self._lease.close()
        tracer = self.ctx.tracer
        if tracer is not None:
            # .get, not .counters(): the hook must not create a counter
            # entry for an operator that never emitted — the traced
            # run's operator map stays bit-identical to the untraced.
            counters = self.ctx.metrics.operators.get(self.op_id)
            tracer.instant(
                "flush:%s" % self.name, "op", self.ctx.metrics.clock_ticks,
                {"out": counters.tuples_out if counters is not None else 0},
            )
        for parent, port in self.parents:
            parent.finish(port)

    def _mark_input_done(self, port: int) -> None:
        if self._input_done[port]:
            raise ExecutionError(
                "input %d of %s finished twice" % (port, self.name)
            )
        self._input_done[port] = True

    def input_done(self, port: int) -> bool:
        return self._input_done[port]

    @property
    def all_inputs_done(self) -> bool:
        return all(self._input_done)

    # -- state accounting --------------------------------------------------

    def account_state(self, delta: int) -> None:
        """Adjust this operator's buffered-state bytes: the paper's
        intermediate-state metric always, plus the governor lease when
        one is attached (which may trigger reclamation — buffer-pool
        eviction or a spill, possibly of this very operator)."""
        self.ctx.metrics.adjust_state(self.op_id, delta)
        lease = self._lease
        if lease is not None:
            if delta >= 0:
                self.ctx.governor.request(lease, delta, self.ctx)
            else:
                self.ctx.governor.release(lease, -delta)

    @property
    def _spilled(self):
        """pid -> runs of this operator's partitions on disk (see
        :class:`~repro.storage.spill.PartitionLedger`); always empty
        when ungoverned."""
        ledger = self._ledger
        return ledger.spilled if ledger is not None else {}

    # -- state exposure ---------------------------------------------------

    def state_values(self, port: int, attr_name: str) -> Iterable:
        """Iterate the buffered values of ``attr_name`` on ``port``."""
        raise ExecutionError("%s holds no state" % self.name)

    def stored_count(self, port: int) -> int:
        """Number of state rows buffered for ``port``."""
        return 0

    def state_complete(self, port: int) -> bool:
        """True when the buffered state for ``port`` contains the FULL
        result of the corresponding subexpression.  AIP sets may only be
        built from complete state — a partial summary would produce
        false negatives and wrong query results.  Short-circuited join
        sides and semijoin probe buffers are *not* complete."""
        return False

    def __repr__(self) -> str:
        return "%s(#%d)" % (self.name, self.op_id)


class StashingOperator(Operator):
    """A two-input operator that must see a merged arrival run's rows
    in the run's order across both ports (the joins).  A page carrying
    ``seq`` belongs to such a run, whose other port may still be coming:
    it waits in the stash until the engine's :meth:`flush_stash`.  A
    page without ``seq`` is processed at once."""

    def __init__(self, *args, **kwargs):
        #: ``(port, page)`` pairs of the current merged run.
        self._stash: List[Tuple[int, ColumnBatch]] = []
        super().__init__(*args, **kwargs)

    def push_page(self, page, port: int = 0) -> None:
        if page.seq is not None:
            self._stash.append((port, page))
            return
        self._process_pages([(port, page)])

    def flush_stash(self) -> None:
        """End of a merged run: process every stashed page of both
        ports, rows in ``seq`` order (the engine calls this
        deepest-first, so the pages of joins below have arrived)."""
        if self._stash:
            stash, self._stash = self._stash, []
            self._process_pages(stash)

    def _process_pages(self, pages) -> None:
        """The kernel over ``(port, page)`` pairs."""
        raise NotImplementedError
