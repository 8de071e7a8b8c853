"""Execution context and the strategy hook interface.

The context bundles everything one query execution needs: the catalog,
the cost model, the metric store, engine options, and the *strategy* —
the pluggable object through which sideways information passing is
implemented.  The baseline strategy does nothing; the Feed-Forward and
Cost-Based AIP strategies (``repro.aip``) and the magic-sets baseline
use these hooks to observe execution and inject semijoin filters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.data.catalog import Catalog
from repro.exec.costs import CostModel
from repro.exec.metrics import Metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.operators.base import Operator


class ExecutionStrategy:
    """Observer/controller hooks invoked by the engine and operators.

    The default implementation is the paper's **Baseline**: normal push
    processing with no information passing.  Subclasses override the
    hooks they need; all hooks are optional.
    """

    def attach(self, ctx: "ExecutionContext", plan) -> None:
        """Called once after physical translation, before execution.

        ``plan`` is the :class:`~repro.exec.translate.PhysicalPlan`,
        giving access to every operator and scan in the query.
        """

    def on_query_start(self) -> None:
        """Called when the engine starts consuming sources."""

    def after_tuples_page(self, op: "Operator", input_idx: int, page) -> None:
        """Called after a stateful operator accepted and processed a
        :class:`~repro.exec.pages.ColumnBatch` on ``input_idx``; the
        page holds the rows that passed all injected filters and that
        the operator kept (Feed-Forward reads their key columns into
        its working sets)."""

    def on_input_finished(self, op: "Operator", input_idx: int) -> None:
        """Called when one input of a stateful operator has completed;
        the operator's buffered state for that input is now the full
        result of the corresponding subexpression."""

    def on_query_end(self) -> None:
        """Called after all sources and operators have finished."""

    def describe(self) -> str:
        return "baseline"


class ExecutionContext:
    """Shared, mutable state for one query execution."""

    def __init__(
        self,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        strategy: Optional[ExecutionStrategy] = None,
        short_circuit: bool = True,
        governor=None,
    ):
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.metrics = Metrics()
        self.strategy = strategy or ExecutionStrategy()
        #: The run's :class:`~repro.storage.governor.MemoryGovernor`,
        #: or None for un-governed execution.  When present, scans
        #: stream governor-managed table pages and stateful operators
        #: spill hash partitions under budget pressure; when absent the
        #: engine is bit-identical to the pre-storage-layer code.
        self.governor = governor
        #: Pipelined-hash-join optimisation from Section VI-A: when one
        #: join input completes, the other side stops buffering.  The
        #: Q2C magic-sets anomaly depends on this; the short-circuit
        #: ablation in ``tests/harness/test_paper_shapes.py`` turns it
        #: off.
        self.short_circuit = short_circuit
        #: Structured trace collector (:class:`repro.obs.trace.Tracer`)
        #: or None.  Every hook site in the engine, operators, AIP
        #: layer, storage governor and service guards with ``is None``,
        #: so disabled tracing costs one attribute load and execution
        #: stays bit-identical to an uninstrumented build.
        self.tracer = None
        #: The distributed run's :class:`NetworkModel`, attached by the
        #: coordinator/service so per-site link parameters (not just the
        #: cost model's uniform constants) drive shipped-filter
        #: staleness and transfer accounting.  None for local runs.
        self.network = None
        #: Observers of AIP set publication, ``fn(op, port, aip_set)``.
        #: The service's batch executor subscribes here to record each
        #: published summary's fill fraction; strategies fire it
        #: whenever they publish or build a completed set.
        self.aip_publish_hooks = []

    def release(self) -> None:
        """End of the run: drop the strategy and the publish hooks.  A
        strategy holds its plan, whose operators hold this context, and
        a hook may close over the context itself; without this the
        finished run is cyclic garbage that waits for a collector
        pass."""
        self.strategy = ExecutionStrategy()
        self.aip_publish_hooks = []

    def notify_aip_publish(self, op, port: int, aip_set) -> None:
        """Tell subscribers a completed AIP set was published for the
        state at ``(op, port)``."""
        if self.tracer is not None:
            self.tracer.instant(
                "aip.publish", "aip", self.metrics.clock_ticks,
                {
                    "op": op.name, "port": port, "attr": aip_set.attr,
                    "bytes": aip_set.byte_size(),
                    "complete": aip_set.complete,
                },
            )
        for hook in self.aip_publish_hooks:
            hook(op, port, aip_set)

    def charge(self, seconds: float) -> None:
        self.metrics.charge(seconds)

    def charge_events(self, count: int, seconds_each: float) -> None:
        """Charge ``count`` per-event costs in one call (tick-exact
        equivalent of ``count`` individual :meth:`charge` calls)."""
        self.metrics.charge_events(count, seconds_each)

    def charge_op(self, owner_id: int, seconds: float) -> None:
        """:meth:`charge` attributed to one operator for EXPLAIN
        ANALYZE; clock-identical to the unattributed form."""
        self.metrics.charge_op(owner_id, seconds)

    def charge_events_op(
        self, owner_id: int, count: int, seconds_each: float
    ) -> None:
        """:meth:`charge_events` attributed to one operator."""
        self.metrics.charge_events_op(owner_id, count, seconds_each)

