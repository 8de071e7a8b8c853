"""Pool lifecycle and fault handling: a killed worker fails its task
with a clean error, is respawned with the same warm init, and the pool
(and everything queued behind the crash) keeps working.

Each test class shares one pool — spawning processes dominates test
wall-clock, so fixtures are module-scoped where possible.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.common.errors import ExecutionError
from repro.obs.registry import MetricsRegistry
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import CatalogSpec, CrashTask, QueryTask
from repro.workloads.registry import get_query

SCALE = 0.001


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(
        2,
        CatalogSpec.tpch(scale_factor=SCALE),
        registry=MetricsRegistry(),
    ).start()
    yield pool
    pool.close()


def _query_task(qid="Q2A", strategy="baseline"):
    from repro.data.tpch import cached_tpch

    catalog = cached_tpch(scale_factor=SCALE)
    plan = get_query(qid).build_baseline(catalog)
    return QueryTask(CatalogSpec.warm(), plan, strategy, label=qid)


def _run(pool, task):
    """Submit one task and gather its result."""
    (result,) = pool.gather([pool.submit(task)], timeout=120)
    return result


def test_query_task_runs(pool):
    result = _run(pool, _query_task())
    assert result.ok, result.error
    (query,) = result.payload["run"].queries
    assert query.error is None
    assert query.result.rows
    assert result.payload["wall_seconds"] > 0


def test_crash_is_a_task_error_not_a_pool_error(pool):
    before = pool.registry.counter("pool.workers_respawned").value
    result = _run(pool, CrashTask())
    assert not result.ok
    assert "died" in result.error
    assert "exit code 17" in result.error
    assert pool.registry.counter("pool.workers_respawned").value == before + 1


def test_pool_stays_usable_after_crash(pool):
    crash = _run(pool, CrashTask(exit_code=3))
    assert "exit code 3" in crash.error
    result = _run(pool, _query_task("Q4A"))
    assert result.ok, result.error
    assert result.payload["run"].queries[0].result.rows
    # two workers again after every crash
    alive = sum(
        1 for h in pool._workers.values() if h.process.is_alive()
    )
    assert alive == 2


def test_unpicklable_task_rejected_before_dispatch(pool):
    # The mp queue feeder thread raises pickling errors asynchronously
    # (the coordinator would hang waiting for a task that never left),
    # so submit() pickles eagerly and refuses synchronously — with
    # nothing enqueued, tracked or counted.
    task = _query_task()
    task.plan.unpicklable = lambda: None  # lambdas cannot pickle
    dispatched = pool.registry.counter("pool.tasks_dispatched").value
    next_id = pool._next_task_id
    with pytest.raises(ExecutionError, match="QueryTask is not picklable"):
        pool.submit(task)
    assert pool._inflight == {}
    assert pool._next_task_id == next_id
    assert pool.registry.counter("pool.tasks_dispatched").value == dispatched
    # ... and the pool still takes the next task.
    assert _run(pool, _query_task()).ok


def test_closed_pool_refuses_submissions(pool):
    throwaway = WorkerPool(1, CatalogSpec.tpch(scale_factor=SCALE))
    throwaway._closed = True
    with pytest.raises(ExecutionError):
        throwaway.submit(CrashTask())


def test_pool_counters_and_busy_fractions(pool):
    snapshot = pool.registry.snapshot()
    assert snapshot["pool.tasks_dispatched"]["value"] >= 4
    assert snapshot["pool.tasks_failed"]["value"] >= 2
    assert snapshot["pool.workers"]["value"] == 2
    pool.record_busy_fractions()
    snapshot = pool.registry.snapshot()
    for index in range(2):
        key = "pool.worker.%d.busy_fraction" % index
        assert 0.0 <= snapshot[key]["value"] <= 1.0


def test_worker_dying_in_startup_fails_the_pool(tmp_path):
    """A script without a ``__main__`` guard re-runs itself in
    each spawned worker, which dies.  With an object catalog's warm
    init (about 0.5 MB at this scale, far over a pipe buffer) in the
    ``Process`` args, the parent blocked for good in ``start()`` while
    writing them to a child that was gone; the payload now travels on
    a queue, so the dead-worker check runs and the script fails."""
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""
        from repro.data.tpch import cached_tpch
        from repro.service import QueryService

        service = QueryService(cached_tpch(scale_factor=%r), parallel=2)
        service.submit("Q1A")
        service.run()
    """ % SCALE))
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "died during warm init" in proc.stderr
