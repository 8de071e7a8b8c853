"""Partition-equivalence acceptance suite.

Every Table I workload × strategy must produce the single-site row
multiset under N ∈ {1, 2, 4} partitions — partitioning is a *physical*
placement choice and must never change answers.  The single-site run is
not re-run: each cell checks against its recorded golden
(``tests/goldens/partition.json``).  For the natively distributed
variants (Q1C/Q3C) the N=1 check is strengthened to the golden's exact
virtual clock, peak state and network bytes: one partition at one site
over the same default link IS the whole-table remote placement.

Service and concurrent paths run the same invariant end-to-end.
"""

import pytest

from repro.data.tpch import cached_tpch
from repro.distributed.site import Placement
from repro.exec.context import ExecutionContext
from repro.harness.concurrent import run_concurrent
from repro.harness.runner import (
    partitioned_placement, run_workload_query,
)
from repro.harness.strategies import make_strategy
from repro.service import QueryService
from repro.workloads.registry import QUERIES, get_query

from tests.goldens import (
    EMITTED, MULTISET_FIELDS, PARTITION, SORTED, assert_matches_golden, cell_key,
    observe_result, observed,
)

SCALE = 0.002
STRATEGIES = ("baseline", "feedforward", "costbased", "magic")


def _cells():
    for qid in sorted(QUERIES):
        for strategy in STRATEGIES:
            if strategy == "magic" and not QUERIES[qid].has_magic:
                continue
            yield qid, strategy


#: What the N=1 placement of a natively distributed query reproduces
#: exactly, beyond the row multiset.
REMOTE_FIELDS = ("clock_ticks", "peak_state_bytes", "network_bytes")


def _observation(qid, strategy, partitions=0, order=SORTED):
    return observe_result(*observed(
        run_workload_query, qid, strategy, scale_factor=SCALE,
        partitions=partitions,
    ), order=order)


@pytest.mark.parametrize("qid,strategy", list(_cells()))
def test_partitioned_rows_identical(qid, strategy):
    base = cell_key(qid, strategy)
    for n in (1, 2, 4):
        fields = MULTISET_FIELDS
        if n == 1 and get_query(qid).is_distributed:
            # Same rows at the same times over the same link: N=1 is
            # bit-identical to the whole-table remote placement.
            fields += REMOTE_FIELDS
        assert_matches_golden(
            base, _observation(qid, strategy, n), PARTITION, fields=fields,
        )


@pytest.mark.parametrize("strategy", ["baseline", "feedforward", "costbased"])
def test_concurrent_partitioned_rows_identical(strategy):
    catalog = cached_tpch(scale_factor=SCALE)
    qids = ["Q2A", "Q1A"]

    def run(placement):
        plans = []
        for qid in qids:
            plan = get_query(qid).build_baseline(catalog)
            if placement is not None:
                from repro.distributed.coordinator import (
                    apply_broadcast_fanouts, mark_remote_scans,
                )
                mark_remote_scans(plan, placement)
                apply_broadcast_fanouts(plan, catalog)
            plans.append(plan)
        ctx = ExecutionContext(catalog)
        resolver = None
        if placement is not None:
            from repro.distributed.coordinator import (
                remote_arrival_resolver,
            )
            from repro.distributed.network import NetworkModel
            resolver = remote_arrival_resolver(NetworkModel())
        strategies = [make_strategy(strategy) for _ in plans]
        return run_concurrent(
            plans, ctx, strategies=strategies, arrival_resolver=resolver,
        )

    placement = Placement()
    placement.partition_table("lineitem", "l_partkey",
                              ["shard-0", "shard-1"])
    placement.partition_table("partsupp", "ps_partkey",
                              ["shard-0", "shard-1"])
    for base, part in zip(run(None), run(placement)):
        assert base.sorted_rows() == part.sorted_rows()


@pytest.mark.parametrize("strategy", ["feedforward", "costbased"])
def test_service_partitioned_rows_identical(strategy):
    catalog = cached_tpch(scale_factor=SCALE)
    placement = Placement()
    placement.partition_table("lineitem", "l_partkey",
                              ["shard-0", "shard-1", "shard-2"])
    placement.partition_table("partsupp", "ps_partkey",
                              ["shard-0", "shard-1", "shard-2"])

    def run(**kwargs):
        service = QueryService(
            catalog, strategy=strategy, result_cache=False, **kwargs
        )
        for qid in ("Q2A", "Q1A", "Q1C"):
            service.submit(qid)
        report = service.run()
        assert [o.status for o in report.outcomes] == ["ok"] * 3
        return [o.result.sorted_rows() for o in report.outcomes]

    assert run() == run(placement=placement)


def test_partitioned_service_moves_bytes():
    catalog = cached_tpch(scale_factor=SCALE)
    placement = partitioned_placement(get_query("Q2A"), 2)
    service = QueryService(catalog, strategy="baseline",
                           placement=placement)
    result = service.execute("Q2A")
    assert result.metrics.network_bytes > 0


#: Partitioned cells pinned exactly — rows in emitted order, clock,
#: peak state and counters — as the tuple-at-a-time and page loops
#: produced them when the golden was recorded.
EXACT_PARTITIONED = (("Q2A", "baseline", 4), ("Q2A", "costbased", 4))


def test_batch_and_tuple_paths_identical_when_partitioned():
    for qid, strategy, n in EXACT_PARTITIONED:
        assert_matches_golden(
            cell_key(qid, strategy, partitions=n),
            _observation(qid, strategy, n, order=EMITTED),
            PARTITION,
        )


def golden_cells():
    """``(suite, key, record)`` for the single-site base runs and the
    exact partitioned cells: the recorder's input (``python -m
    tests.goldens.record``)."""
    for qid, strategy in _cells():
        yield PARTITION, cell_key(qid, strategy), (
            lambda q=qid, s=strategy: _observation(q, s)
        )
    for qid, strategy, n in EXACT_PARTITIONED:
        yield PARTITION, cell_key(qid, strategy, partitions=n), (
            lambda q=qid, s=strategy, n=n: _observation(
                q, s, n, order=EMITTED,
            )
        )
