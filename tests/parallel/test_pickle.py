"""The parallel wire format: what a pool worker receives is a logical
plan inside a :class:`QueryTask`, and it must survive pickle
round-trips under the spawn start-method.

Covers the logical plan of every workload (baseline, magic, and one
stamped with a partitioned placement, so every logical node class
crosses the boundary), an unpickled plan executing identically to the
original, column pages, partition specs, and the task spec classes
themselves.  Physical operators never cross: the worker translates.
"""

import pickle

import pytest

import repro.plan.logical as logical
from repro.data.tpch import cached_tpch
from repro.distributed.coordinator import mark_remote_scans
from repro.distributed.site import PartitionSpec
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.exec.pages import ColumnBatch
from repro.harness.runner import partitioned_placement
from repro.harness.strategies import make_strategy, uses_magic_plan
from repro.parallel.tasks import CatalogSpec, CrashTask, QueryTask
from repro.workloads.registry import QUERIES, get_query

SCALE = 0.001


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def _plan(qid, strategy="baseline", partitions=0):
    query = get_query(qid)
    catalog = cached_tpch(scale_factor=SCALE, skew=query.skew)
    plan = query.build(catalog, uses_magic_plan(strategy))
    if partitions:
        mark_remote_scans(plan, partitioned_placement(query, partitions))
    return plan, catalog


def _plan_cases():
    cases = [(qid, "baseline", 0) for qid in sorted(QUERIES)]
    cases += [
        (qid, "magic", 0)
        for qid in sorted(QUERIES) if get_query(qid).has_magic
    ]
    # A partitioned placement stamps a PartitionSpec on the scan.
    cases.append(("Q2A", "baseline", 4))
    return cases


def _node_classes():
    return {
        obj.__name__ for obj in vars(logical).values()
        if isinstance(obj, type) and issubclass(obj, logical.LogicalNode)
        and obj is not logical.LogicalNode
    }


@pytest.mark.parametrize("qid,strategy,partitions", _plan_cases())
def test_logical_plan_roundtrips(qid, strategy, partitions):
    plan, _catalog = _plan(qid, strategy, partitions)
    loaded = _roundtrip(plan)
    assert loaded.describe() == plan.describe()
    originals, clones = list(plan.walk()), list(loaded.walk())
    assert len(clones) == len(originals)
    for original, clone in zip(originals, clones):
        assert type(clone) is type(original)
        assert clone.node_id == original.node_id
        assert clone.schema == original.schema
        assert clone.column_origins == original.column_origins
        if isinstance(original, logical.Scan) and original.partition:
            assert clone.partition.sites == original.partition.sites
            assert clone.partition.key == original.partition.key


def test_every_logical_node_class_is_covered():
    """The plan matrix above must actually ship every logical node
    class — a new node type must join the wire format."""
    seen = set()
    for qid, strategy, partitions in _plan_cases():
        plan, _catalog = _plan(qid, strategy, partitions)
        seen.update(type(node).__name__ for node in plan.walk())
    missing = _node_classes() - seen
    assert not missing, "node classes never pickled by the matrix: %s" % (
        sorted(missing),
    )


@pytest.mark.parametrize("qid,strategy", [("Q2A", "baseline"),
                                          ("Q3A", "magic")])
def test_unpickled_plan_executes_identically(qid, strategy):
    """The proof that nothing is lost on the wire: the unpickled plan,
    translated afresh as a worker would, runs to the same rows and
    clock as the original."""
    plan, catalog = _plan(qid, strategy)
    loaded = _roundtrip(plan)
    expected = execute_plan(
        plan, ExecutionContext(catalog, strategy=make_strategy(strategy))
    )
    logical.ensure_node_ids_above(max(n.node_id for n in loaded.walk()))
    result = execute_plan(
        loaded, ExecutionContext(catalog, strategy=make_strategy(strategy))
    )
    assert result.rows == expected.rows
    assert result.metrics.clock_ticks == expected.metrics.clock_ticks


def test_column_batch_roundtrips():
    rows = [(1, "a", 2.5), (2, "b", 3.5), (3, "c", 4.5)]
    batch = ColumnBatch.from_rows(rows, width=3)
    clone = _roundtrip(batch)
    assert clone.n_rows == batch.n_rows
    assert list(clone.rows()) == list(batch.rows())


@pytest.mark.parametrize("spec", [
    PartitionSpec("lineitem", "l_partkey", ["s0", "s1", "s2"], "hash", None),
    PartitionSpec("orders", "o_orderkey", ["s0", "s1"], "range", [100]),
])
def test_partition_spec_roundtrips(spec):
    clone = _roundtrip(spec)
    assert clone.table == spec.table
    assert clone.key == spec.key
    assert list(clone.sites) == list(spec.sites)
    assert clone.scheme == spec.scheme
    assert clone.bounds == spec.bounds


def test_task_specs_roundtrip():
    warm = _roundtrip(CatalogSpec.warm())
    assert warm.kind == "warm" and warm.key() == ("warm",)
    tpch = _roundtrip(CatalogSpec.tpch(scale_factor=0.001, skew=0.5))
    assert tpch.key() == ("tpch", 0.001, 0.5, 7)
    crash = _roundtrip(CrashTask(exit_code=3))
    assert crash.exit_code == 3

    plan = get_query("Q2A").build_baseline(cached_tpch(scale_factor=SCALE))
    qtask = _roundtrip(QueryTask(
        CatalogSpec.warm(), plan, "feedforward", label="Q2A",
    ))
    assert qtask.strategy_name == "feedforward"
    assert qtask.plan.node_id == plan.node_id
