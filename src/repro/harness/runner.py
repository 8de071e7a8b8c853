"""Run one workload query under one strategy and collect metrics.

This is the single entry point the figure tests
(``tests/harness/test_paper_shapes.py``), ``repro run`` and the
examples go through, so every figure measures the same code paths.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.data.tpch import cached_tpch
from repro.distributed.coordinator import DistributedQuery
from repro.distributed.network import NetworkModel
from repro.distributed.site import Placement, Site
from repro.exec.arrival import ArrivalModel
from repro.exec.context import ExecutionContext
from repro.exec.engine import QueryResult, execute_plan
from repro.harness.strategies import make_strategy, uses_magic_plan
from repro.workloads.base import WorkloadQuery
from repro.workloads.registry import get_query

#: Default partition key per TPC-H table: the join attribute the Table I
#: workloads filter most, so shipped AIP filters prune every partition.
PARTITION_KEYS = {
    "lineitem": "l_partkey",
    "partsupp": "ps_partkey",
    "orders": "o_orderkey",
    "customer": "c_custkey",
    "supplier": "s_suppkey",
    "part": "p_partkey",
    "nation": "n_nationkey",
    "region": "r_regionkey",
}


def partitioned_placement(
    query: WorkloadQuery, partitions: int, tables=None
) -> Placement:
    """Placement hash-partitioning a workload query's big relation(s)
    across ``partitions`` sites named ``shard-0..N-1``.

    ``tables`` overrides which tables are partitioned; the default is
    the query's remote tables (Q1C/Q3C) or, for local workloads, its
    large input (``delayed_table``).
    """
    if partitions < 1:
        raise ValueError("need at least one partition")
    if tables is None:
        tables = query.remote_tables or (query.delayed_table,)
    placement = Placement()
    sites = ["shard-%d" % i for i in range(partitions)]
    for table in tables:
        placement.partition_table(table, PARTITION_KEYS[table], sites)
    return placement


class RunRecord:
    """Everything one figure cell needs."""

    __slots__ = ("qid", "strategy", "result", "summary", "storage")

    def __init__(self, qid: str, strategy: str, result: QueryResult,
                 storage: Optional[Dict] = None):
        self.qid = qid
        self.strategy = strategy
        self.result = result
        self.summary: Dict[str, float] = result.metrics.summary()
        #: Storage-layer observations of a governed run (budget, peak
        #: resident bytes, spill traffic), or None when un-governed.
        self.storage = storage

    @property
    def virtual_seconds(self) -> float:
        return self.summary["virtual_seconds"]

    @property
    def peak_state_mb(self) -> float:
        return self.summary["peak_state_mb"]

    def __repr__(self) -> str:
        return "RunRecord(%s/%s: %.4fs, %.3fMB)" % (
            self.qid, self.strategy,
            self.virtual_seconds, self.peak_state_mb,
        )


def run_workload_query(
    qid: str,
    strategy: str,
    scale_factor: float = 0.01,
    delayed: bool = False,
    seed: int = 7,
    strategy_kwargs: Optional[dict] = None,
    short_circuit: bool = True,
    partitions: int = 0,
    network: Optional[NetworkModel] = None,
    memory_budget: Optional[int] = None,
    tracer=None,
) -> RunRecord:
    """Execute ``qid`` under ``strategy`` and return its metrics.

    ``delayed=True`` reproduces the Section VI-B setup: the query's
    large input relation gets a 100 ms initial delay plus 5 ms per 1000
    tuples.  Distributed variants (Q1C/Q3C) fetch their remote tables
    over the simulated 100 Mb Ethernet regardless of ``delayed``.
    ``partitions=N`` runs partition-parallel: the query's big relation
    (remote tables for Q1C/Q3C, else its ``delayed_table``) is hash
    partitioned across N sites, each streaming over its own link; the
    partitions interleave on this process's one virtual clock (whole
    queries, not partitions, are what ``QueryService(parallel=N)``
    puts on worker processes).
    Partitioned pacing replaces the delayed-source model, so combining
    the two is rejected rather than silently mislabelled.
    Every plan runs in column pages; the equivalence suites check runs
    against the recorded goldens in ``tests/goldens/``.
    ``memory_budget=N`` attaches a
    :class:`~repro.storage.governor.MemoryGovernor` with an ``N``-byte
    budget: scans stream buffer-pool pages and stateful operators
    spill under pressure.  Rows are identical to the un-governed run
    (as a multiset; spilling reorders completion-time emissions) and
    ``record.storage`` reports what the governor observed.  ``None``
    (the default) runs the engine bit-identically to a build without
    the storage layer.  This is the *enforced* engine budget — not to
    be confused with Feed-Forward's ``strategy_kwargs`` AIP-set budget
    or the service layer's admission estimate budget.
    ``tracer`` attaches a :class:`~repro.obs.trace.Tracer` to the run
    (engine spans, AIP/governor instants); None — the default — keeps
    execution bit-identical to an uninstrumented build.
    """
    if partitions and delayed:
        raise ValueError(
            "delayed sources and partition-parallel placement are "
            "different arrival regimes; pick one"
        )
    query = get_query(qid)
    catalog = cached_tpch(scale_factor=scale_factor, skew=query.skew, seed=seed)
    plan = (
        query.build_magic(catalog)
        if uses_magic_plan(strategy)
        else query.build_baseline(catalog)
    )
    governor = None
    if memory_budget is not None:
        from repro.storage.governor import MemoryGovernor
        governor = MemoryGovernor(memory_budget)
        governor.tracer = tracer
    ctx = ExecutionContext(
        catalog,
        strategy=make_strategy(strategy, **(strategy_kwargs or {})),
        short_circuit=short_circuit,
        governor=governor,
    )
    ctx.tracer = tracer

    try:
        if partitions:
            dq = DistributedQuery(
                plan, partitioned_placement(query, partitions),
                network or NetworkModel(),
            )
            result = dq.execute(ctx)
        elif query.is_distributed:
            dq = DistributedQuery(
                plan,
                Placement([Site("remote-1", query.remote_tables)]),
                network or NetworkModel(),
            )
            result = dq.execute(ctx)
        else:
            resolver = None
            if delayed:
                delayed_table = query.delayed_table

                def resolver(node):
                    if node.table_name == delayed_table:
                        return ArrivalModel.delayed(
                            initial_delay=0.100, batch_size=1000,
                            batch_delay=0.005,
                        )
                    return None

            result = execute_plan(plan, ctx, arrival_resolver=resolver)
    finally:
        # Engine errors included: the spill directory never outlives
        # the run.
        if governor is not None:
            governor.close()

    return RunRecord(
        qid, strategy, result,
        governor.snapshot() if governor is not None else None,
    )
