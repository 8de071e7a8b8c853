"""The worker-process side of the pool.

``_worker_main`` is the spawn entry point: it rebuilds the warm state
(catalogs resolve through the same deterministic generators the
coordinator used, so table rows are bit-identical in every process),
acknowledges readiness, and then loops over the task queue.  Fragment
tasks replay one partition's arrival schedule and stream surviving
rows back as ordered pages; query tasks run a whole plan through the
service's batch executor and return its record wholesale.

Message protocol (worker → coordinator), all tuples on the result
queue:

==========================================  ===========================
``("ready", worker_index)``                 warm init finished
``("init_error", worker_index, tb)``        init failed; worker exits
``("start", task_id, worker_index)``        task picked up
``("page", task_id, page_seq, entries)``    one fragment result page
``("done", task_id, worker_index, payload)``  task finished
``("error", task_id, worker_index, tb)``    task raised; worker lives
==========================================  ===========================
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from typing import Dict, List

from repro.parallel.tasks import (
    ARRIVAL_PARAMS, CatalogSpec, CrashTask, FragmentTask, QueryTask,
    summary_from_spec,
)


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


def arrival_params_of(arrival) -> Dict:
    """The constructor kwargs that rebuild ``arrival`` fresh."""
    return {name: getattr(arrival, name) for name in ARRIVAL_PARAMS}


def run_fragment(state: WorkerState, task: FragmentTask, emit_page) -> Dict:
    """Evaluate one partition fragment; stream pages via ``emit_page``.

    The arrival walk is a fresh :class:`ArrivalModel` over the full
    partition row list — the identical float accumulation the serial
    engine performs — so every surviving row's arrival time matches the
    serial run to the bit.  Shipped scan-level AIP summaries and the
    post-merge filter chain are applied here; the coordinator re-applies
    them to the (all-surviving) replayed rows and folds the counter
    deltas so totals equal the serial run's exactly.
    """
    from repro.distributed.site import PartitionSpec
    from repro.exec.arrival import ArrivalModel
    from repro.expr.compiler import compile_predicate

    started = time.perf_counter()
    catalog = state.catalog(task.catalog_spec)
    table = catalog.table(task.table_name)
    spec = PartitionSpec(*task.spec_fields)
    key_index = table.schema.index_of(spec.key)
    rows = table.partition_rows(spec, key_index)[task.partition_index]

    arrival = ArrivalModel(**task.arrival_params)
    schema = task.schema
    scan_filters = [
        (schema.index_of(attr), summary_from_spec(summary_spec))
        for attr, summary_spec in task.scan_filters
    ]
    predicate_fns = [
        compile_predicate(predicate, schema) for _, predicate in task.chain
    ]

    raw = len(rows)
    scan_pruned = 0
    chain_out = [0] * len(predicate_fns)
    entries: List = []
    page_seq = 0
    cursor = 0
    while True:
        found = arrival.next_arrival(rows, cursor)
        if found is None:
            break
        cursor, when, row = found
        alive = True
        for filter_index, summary in scan_filters:
            if row[filter_index] not in summary:
                scan_pruned += 1
                alive = False
                break
        if not alive:
            continue
        for stage, fn in enumerate(predicate_fns):
            if not fn(row):
                alive = False
                break
            chain_out[stage] += 1
        if not alive:
            continue
        entries.append((when, row))
        if len(entries) >= task.page_rows:
            emit_page(page_seq, entries)
            page_seq += 1
            entries = []
    if entries:
        emit_page(page_seq, entries)
        page_seq += 1

    transferred = arrival.rows_transferred
    scan_out = transferred - scan_pruned
    survivors = chain_out[-1] if chain_out else scan_out
    return {
        "raw": raw,
        "transferred": transferred,
        "scan_pruned": scan_pruned,
        "scan_out": scan_out,
        "chain_out": chain_out,
        "survivors": survivors,
        "pages": page_seq,
        "wall_seconds": time.perf_counter() - started,
    }


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


def _worker_main(index: int, init_bytes: bytes, task_q, result_q) -> None:
    """Entry point of one pool worker process (spawn-safe: top-level,
    state rebuilt locally, nothing inherited but the two queues)."""
    state = WorkerState(index)
    try:
        warm_spec = pickle.loads(init_bytes)
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
            if isinstance(task, FragmentTask):
                def emit_page(page_seq: int, entries) -> None:
                    result_q.put(("page", task_id, page_seq, entries))
                payload = run_fragment(state, task, emit_page)
            elif isinstance(task, QueryTask):
                payload = run_query(state, task)
            else:
                raise TypeError("unknown task type %r" % type(task).__name__)
        except BaseException:
            result_q.put(("error", task_id, index, traceback.format_exc()))
            continue
        result_q.put(("done", task_id, index, payload))
