"""A finished query's plan is freed by reference counting alone.

``execute_batch`` and ``run_workload_query`` cut the executed plan's
cycles (operator links, the context's strategy and publish hooks), so
operators, their state and their filters' verdict memos go the moment
the run returns, not at whatever collector pass comes next.  Each test
runs with the collector off: an operator still alive afterwards sits
in a cycle.
"""

import gc
import weakref

import pytest

from repro.data.tpch import cached_tpch
from repro.exec.operators.hashjoin import PHashJoin
from repro.harness.runner import run_workload_query
from repro.harness.strategies import MAGIC
from repro.service.executor import execute_batch
from repro.storage.governor import MemoryGovernor
from repro.workloads.registry import get_query


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


@pytest.fixture
def joins(monkeypatch):
    """Weak references to every hash join built while the test runs."""
    made = []
    init = PHashJoin.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(PHashJoin, "__init__", recording_init)
    return made


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _plans(catalog, qid, strategy):
    query = get_query(qid)
    if strategy == MAGIC:
        return [(query.build(catalog, magic=True), strategy)]
    return [(query.build_baseline(catalog), strategy)]


@pytest.mark.parametrize("qid, strategy", [
    ("Q5A", "baseline"), ("Q5A", "feedforward"), ("Q5A", "costbased"),
    ("Q2A", "feedforward"), ("Q2A", MAGIC),
])
def test_finished_plan_is_freed_without_the_collector(
    catalog, joins, collector_off, qid, strategy,
):
    run = execute_batch(catalog, _plans(catalog, qid, strategy))
    assert run.queries[0].result.rows
    assert joins and all(ref() is None for ref in joins)


@pytest.mark.parametrize("strategy", ["baseline", "feedforward"])
def test_governed_plan_is_freed_without_the_collector(
    catalog, joins, collector_off, strategy,
):
    governor = MemoryGovernor(256 * 1024)
    try:
        execute_batch(
            catalog, _plans(catalog, "Q5A", strategy), governor=governor,
        )
    finally:
        governor.close()
    assert joins and all(ref() is None for ref in joins)


@pytest.mark.parametrize("qid, strategy, kwargs", [
    ("Q5A", "baseline", {}), ("Q5A", "feedforward", {}),
    ("Q5A", "costbased", {}), ("Q2A", MAGIC, {}),
    ("Q2A", "feedforward", {"delayed": True}),
    ("Q1C", "feedforward", {}), ("Q2A", "baseline", {"partitions": 2}),
    ("Q5A", "feedforward", {"memory_budget": 256 * 1024}),
])
def test_harness_run_is_freed_without_the_collector(
    joins, collector_off, qid, strategy, kwargs,
):
    # Q1C (a remote scan) returns no rows at this scale; the joins run.
    record = run_workload_query(qid, strategy, scale_factor=0.002, **kwargs)
    assert record.result.metrics.clock_ticks
    assert joins and all(ref() is None for ref in joins)
