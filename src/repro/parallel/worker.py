"""The worker-process side of the pool.

``_worker_main`` is the spawn entry point: it rebuilds the warm state
(catalogs resolve through the same deterministic generators the
coordinator used, so table rows are bit-identical in every process),
acknowledges readiness, and then loops over the task queue.  A task
is a whole logical plan (:class:`QueryTask`): the worker runs it
through the service's batch executor and returns the resulting
``BatchRun`` wholesale.

Message protocol (worker → coordinator), all tuples on the result
queue:

============================================  =========================
``("ready", worker_index)``                   warm init finished
``("init_error", worker_index, tb)``          init failed; worker exits
``("start", task_id, worker_index)``          task picked up
``("done", task_id, worker_index, payload)``  task finished
``("error", task_id, worker_index, tb)``      task raised; worker lives
============================================  =========================
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from typing import Dict

from repro.parallel.tasks import CatalogSpec, CrashTask, QueryTask


class WorkerState:
    """Per-process warm state: resolved catalogs, keyed by spec."""

    def __init__(self, index: int):
        self.index = index
        self._catalogs: Dict[tuple, object] = {}
        #: The catalog resolved from the pool's init spec; tasks refer
        #: to it symbolically via ``CatalogSpec.warm()`` so an object
        #: catalog ships once at init, never per task.
        self.warm_catalog = None

    def catalog(self, spec: CatalogSpec):
        if spec.kind == "warm":
            if self.warm_catalog is None:
                raise ValueError(
                    "task names the warm catalog but this worker was "
                    "started cold (pool has no catalog_spec)"
                )
            return self.warm_catalog
        key = spec.key()
        catalog = self._catalogs.get(key)
        if catalog is None:
            catalog = spec.resolve()
            self._catalogs[key] = catalog
        return catalog


def run_query(state: WorkerState, task: QueryTask) -> Dict:
    """Run one whole plan through the service's batch executor — the
    same function the inline backend calls — as a batch of one, and
    return its :class:`~repro.service.executor.BatchRun`."""
    from repro.obs.trace import Tracer
    from repro.plan.logical import ensure_node_ids_above
    from repro.service.executor import execute_batch

    started = time.perf_counter()
    catalog = state.catalog(task.catalog_spec)
    # The shipped plan carries the *coordinator's* node ids; push this
    # process's counter past them so fresh ids (result sink, partition
    # scans) cannot collide with imported nodes.
    ensure_node_ids_above(max(node.node_id for node in task.plan.walk()))
    tracer = Tracer() if task.trace else None
    run = execute_batch(
        catalog, [(task.plan, task.strategy_name)],
        tracer=tracer, **task.options,
    )
    if tracer is not None:
        run.trace_events = list(tracer.events)
    return {"run": run, "wall_seconds": time.perf_counter() - started}


def _worker_main(index: int, init_q, task_q, result_q) -> None:
    """Entry point of one pool worker process (spawn-safe: top-level,
    state rebuilt locally, nothing inherited but the three queues).
    The pickled warm-init spec is the first thing it takes from
    ``init_q``."""
    state = WorkerState(index)
    try:
        warm_spec = pickle.loads(init_q.get())
        if warm_spec is not None:
            state.warm_catalog = state.catalog(warm_spec)
    except BaseException:
        result_q.put(("init_error", index, traceback.format_exc()))
        return
    result_q.put(("ready", index))
    while True:
        item = task_q.get()
        if item is None:
            return
        task_id, task_bytes = item
        result_q.put(("start", task_id, index))
        try:
            task = pickle.loads(task_bytes)
            if isinstance(task, CrashTask):
                # Fault injection: die *after* the start ack reaches
                # the pipe so the coordinator attributes the loss to
                # this worker.  ``put`` only hands the ack to the
                # queue's feeder thread; an immediate ``os._exit`` can
                # kill the feeder before it writes, leaving the task
                # unattributable (and the coordinator's gather waiting
                # forever) — close and join the feeder to force the
                # flush first.
                result_q.close()
                result_q.join_thread()
                os._exit(task.exit_code)
            if not isinstance(task, QueryTask):
                raise TypeError("unknown task type %r" % type(task).__name__)
            payload = run_query(state, task)
        except BaseException:
            result_q.put(("error", task_id, index, traceback.format_exc()))
            continue
        result_q.put(("done", task_id, index, payload))
