"""Coordinator side of fragment-parallel execution.

``prefetch_partition_fragments`` is called by ``execute_plan`` after
strategy attach when the context carries a worker pool: it collects
every eligible partition scan of the translated plan, ships one
:class:`~repro.parallel.tasks.FragmentTask` per partition to the pool,
and rewires each scan to replay the worker-computed arrival schedule
(:class:`~repro.parallel.replay.ReplayArrival`) over only the rows
that survived the worker-side filters.  The master then drives the
normal serial engine: surviving rows enter the event heap at their
exact serial arrival times, so cross-scan interleaving — and the
result rows — are bit-identical to serial execution.

Determinism note: merging is by ``(partition, page_seq)``, never by
wall-clock receipt order, so any worker count and any scheduling of
the pool produce the same replayed row lists.

Counter accounting: the worker absorbed the scan's arrival walk, its
injected-filter probes, and the post-merge filter chain, so the
replayed run under-counts those operators.  The returned *fold*
callable (run **after** the engine finishes, so mid-run strategy
decisions never observe pre-seeded counters) adds the exact deltas;
totals for ``tuples_in``/``tuples_out``/``tuples_pruned`` then equal
the serial run's.  The virtual clock is **not** part of the parallel
contract — replay charges per-tuple costs only for surviving rows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import ExecutionError
from repro.exec.arrival import ArrivalModel
from repro.exec.operators.filter import PFilter
from repro.exec.operators.merge import PMerge
from repro.parallel.replay import ReplayArrival
from repro.parallel.tasks import CatalogSpec, FragmentTask, summary_to_spec
from repro.parallel.worker import arrival_params_of


class _Fragment:
    """One dispatched partition scan awaiting its worker result."""

    __slots__ = ("scan", "task", "task_id", "chain_ops")

    def __init__(self, scan, task, task_id, chain_ops):
        self.scan = scan
        self.task = task
        self.task_id = task_id
        self.chain_ops = chain_ops


def _filter_chain(merge: PMerge) -> List[PFilter]:
    """The stacked filters directly above ``merge``, bottom-up.

    The chain stops at the first operator that is not a plain
    single-parent :class:`PFilter`, or that already carries injected
    AIP filters (those probe *before* the predicate; absorbing the
    predicate worker-side while a pre-installed summary waits on the
    master would reorder observable per-filter counters).
    """
    chain: List[PFilter] = []
    op = merge
    while len(op.parents) == 1:
        parent, _port = op.parents[0]
        if not isinstance(parent, PFilter):
            break
        if any(parent._filters[port] for port in range(len(parent._filters))):
            break
        chain.append(parent)
        op = parent
    return chain


def _eligible_scan(scan, ctx) -> bool:
    """A partition scan the pool may absorb without changing results."""
    if scan.partition_index is None or getattr(scan, "logical", None) is None:
        return False
    if scan._cursor != 0 or scan._pending is not None:
        return False
    arrival = scan.arrival
    # Replay reproduces exactly the base model's float accumulation; a
    # subclass (or a model already carrying source filters, whose
    # pruning would change later rows' times) must stay serial.
    if type(arrival) is not ArrivalModel:
        return False
    if arrival.filters or arrival._emitted:
        return False
    # Governed scans stream PagedRows facades, not plain lists.
    return type(scan.rows) is list


def prefetch_partition_fragments(plan, ctx) -> Optional[Callable[[], None]]:
    """Fan eligible partition scans out to the context's worker pool.

    Returns a fold callable to run after the engine finishes (adds the
    worker-absorbed counter deltas), or None when nothing was
    dispatched.  Any worker failure raises :class:`ExecutionError`.
    """
    pool = ctx.pool
    if pool is None or ctx.governor is not None:
        return None
    catalog_spec = pool.catalog_spec
    if catalog_spec is None or not catalog_spec.matches(ctx.catalog):
        return None

    fragments: List[_Fragment] = []
    chains: Dict[int, List[PFilter]] = {}
    for scan in plan.scans:
        if not _eligible_scan(scan, ctx):
            continue
        logical = scan.logical
        spec = logical.partition
        merge = plan.by_node_id.get(logical.node_id)
        if not isinstance(merge, PMerge):
            continue
        chain = chains.get(logical.node_id)
        if chain is None:
            chain = chains[logical.node_id] = _filter_chain(merge)
        try:
            scan_filters = [
                (f.attr_name, summary_to_spec(f.summary))
                for f in scan.filters_on(0)
            ]
            task = FragmentTask(
                # matches() above proved the workers' warm catalog is
                # this context's; name it symbolically so an object
                # catalog is never re-shipped per fragment.
                catalog_spec=CatalogSpec.warm(),
                table_name=logical.table_name,
                schema=scan.out_schema,
                spec_fields=(
                    spec.table, spec.key, tuple(spec.sites), spec.scheme,
                    list(spec.bounds) if spec.bounds is not None else None,
                ),
                partition_index=scan.partition_index,
                arrival_params=arrival_params_of(scan.arrival),
                scan_filters=scan_filters,
                chain=[(op.op_id, op.predicate) for op in chain],
            )
        except Exception:
            continue
        try:
            task_id = pool.submit(task)
        except ExecutionError:
            continue  # the spec cannot pickle: this scan stays serial
        fragments.append(_Fragment(scan, task, task_id, chain))

    if not fragments:
        return None
    results = pool.gather([fragment.task_id for fragment in fragments])

    deltas: Dict[int, List[int]] = {}

    def bump(op_id: int, d_in: int, d_out: int, d_pruned: int) -> None:
        delta = deltas.get(op_id)
        if delta is None:
            delta = deltas[op_id] = [0, 0, 0]
        delta[0] += d_in
        delta[1] += d_out
        delta[2] += d_pruned

    for fragment, result in zip(fragments, results):
        if result.error is not None:
            raise ExecutionError(
                "parallel fragment %r failed: %s"
                % (fragment.task, result.error)
            )
        payload = result.payload
        entries = result.entries()
        survivors = payload["survivors"]
        if len(entries) != survivors:
            raise ExecutionError(
                "parallel fragment %r returned %d rows, counters say %d"
                % (fragment.task, len(entries), survivors)
            )
        scan = fragment.scan
        template = arrival_params_of(scan.arrival)
        replay = ReplayArrival([when for when, _ in entries], template)
        # Pre-seed the transfer count of the non-surviving rows so the
        # end-of-run byte accounting equals the serial run's.
        replay.rows_transferred = payload["transferred"] - survivors
        scan.rows = [row for _, row in entries]
        scan.arrival = replay
        scan.exhausted = False

        transferred = payload["transferred"]
        scan_out = payload["scan_out"]
        bump(scan.op_id, transferred - survivors, scan_out - survivors,
             payload["scan_pruned"])
        merge = plan.by_node_id[scan.logical.node_id]
        bump(merge.op_id, scan_out - survivors, scan_out - survivors, 0)
        stage_in = scan_out
        for op, stage_out in zip(fragment.chain_ops, payload["chain_out"]):
            bump(op.op_id, stage_in - survivors, stage_out - survivors, 0)
            stage_in = stage_out

    if ctx.tracer is not None:
        ctx.tracer.instant_now(
            "parallel.prefetch", "pool",
            {
                "fragments": len(fragments),
                "workers": pool.n_workers,
                "rows_replayed": sum(len(f.scan.rows) for f in fragments),
            },
        )

    metrics = ctx.metrics

    def fold() -> None:
        for op_id, (d_in, d_out, d_pruned) in deltas.items():
            if not (d_in or d_out or d_pruned):
                continue  # don't materialise counters the run never touched
            counters = metrics.counters(op_id)
            counters.tuples_in += d_in
            counters.tuples_out += d_out
            counters.tuples_pruned += d_pruned

    return fold
