"""One query lifecycle behind two backends: nothing is lost at the
process boundary, and the executor is the engine.

The inline and pool backends run the *same* batch executor and feed
the *same* finish path, so a one-query-at-a-time stream must come out
bit-identical either way — rows in order, the clock, the counters, and
(what the pool path used to drop) profile operator tables.  A batch
of one through the executor must in turn equal the plain one-shot
engine.
"""

import json
import re
import sys

import pytest

from repro.data.tpch import cached_tpch
from repro.distributed.network import MBPS, NetworkModel
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.harness.runner import partitioned_placement
from repro.harness.strategies import make_strategy
from repro.obs.trace import Tracer
from repro.parallel import CatalogSpec, WorkerPool
from repro.service import QueryService
from repro.service.executor import execute_batch
from repro.workloads.registry import get_query

SCALE = 0.002
STREAM = (
    ("Q2A", "feedforward"), ("Q4A", "costbased"), ("Q1A", "baseline"),
    ("Q3A", "feedforward"), ("Q5A", "costbased"),
)


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=SCALE)


@pytest.fixture(scope="module")
def pool():
    pool = WorkerPool(1, CatalogSpec.tpch(scale_factor=SCALE)).start()
    yield pool
    pool.close()


def _serve(catalog, tmp_path, name, stream=STREAM, **config):
    """Run ``stream`` one query per batch, caches off; returns the
    (closed) service, its report and its event log entries."""
    service = QueryService(
        catalog, max_concurrent=1, aip_cache=False, result_cache=False,
        event_log=str(tmp_path / name), **config,
    )
    for qid, strategy in stream:
        service.submit(qid, strategy=strategy)
    report = service.run()
    service.close()
    with open(tmp_path / name, encoding="utf-8") as fh:
        events = [json.loads(line) for line in fh]
    return service, report, events


def _counters(service, prefixes=("engine.", "queries.")):
    return {
        name: entry for name, entry in service.registry.snapshot().items()
        if name.startswith(prefixes)
    }


def _operator_table(service, seq):
    """The retained profile's operator rows, minus the process-global
    node-id suffix of each label (the two services built their plans
    one after the other, so the ids differ; nothing else may)."""
    return [
        dict(row, label=re.sub(r" #\d+$", "", row["label"]))
        for row in service.profiles.get(seq).operators
    ]


def test_pool_backend_matches_inline_bit_for_bit(catalog, pool, tmp_path):
    inline, inline_report, inline_events = _serve(
        catalog, tmp_path, "inline.jsonl"
    )
    pooled, pool_report, pool_events = _serve(
        catalog, tmp_path, "pool.jsonl", parallel=1, pool=pool
    )
    assert len(inline_report.outcomes) == len(STREAM)
    for a, b in zip(inline_report.outcomes, pool_report.outcomes):
        assert (a.label, a.status, a.strategy) == (b.label, b.status, b.strategy)
        assert a.result.rows == b.result.rows, a.label  # in order
        assert (a.start, a.finish, a.batch) == (b.start, b.finish, b.batch)
        assert a.result.metrics.summary() == b.result.metrics.summary()
    assert inline.clock == pooled.clock
    assert inline.peak_state_bytes == pooled.peak_state_bytes
    assert inline.batches_run == pooled.batches_run == len(STREAM)
    assert inline.admission.correction == pooled.admission.correction
    assert inline_report.engine == pool_report.engine
    assert _counters(inline) == _counters(pooled)
    assert _counters(inline, ("aip.",)) == _counters(pooled, ("aip.",))
    assert [e["event"] for e in inline_events] == \
        [e["event"] for e in pool_events]

    # What the pool path used to lose at the process boundary.
    for a in inline_report.outcomes:
        table = _operator_table(inline, a.seq)
        assert table, a.label
        assert table == _operator_table(pooled, a.seq), a.label


def test_partitioned_stream_matches_inline(catalog, pool, tmp_path):
    """A partitioned plan crossing the process boundary: `lineitem` and
    `partsupp` hash-partitioned four ways, one shard on a slower link,
    the worker translating the stamped logical plan itself."""
    network = NetworkModel(default_bandwidth=10 * MBPS)
    network.set_link("shard-3", 1 * MBPS, 5e-3)
    config = dict(
        placement=partitioned_placement(
            get_query("Q2A"), 4, tables=("lineitem", "partsupp")
        ),
        network=network,
    )
    inline, inline_report, _ = _serve(
        catalog, tmp_path, "inline.jsonl", **config
    )
    pooled, pool_report, _ = _serve(
        catalog, tmp_path, "pool.jsonl", parallel=1, pool=pool, **config
    )
    assert [o.status for o in pool_report.outcomes] == ["ok"] * len(STREAM)
    for a, b in zip(inline_report.outcomes, pool_report.outcomes):
        assert a.result.rows == b.result.rows, a.label  # in order
        metrics_a, metrics_b = a.result.metrics, b.result.metrics
        assert metrics_a.clock_ticks == metrics_b.clock_ticks, a.label
        assert metrics_a.network_bytes == metrics_b.network_bytes, a.label
        assert metrics_a.network_bytes > 0, a.label  # the shards streamed
        assert _operator_table(inline, a.seq) == \
            _operator_table(pooled, a.seq), a.label
    assert inline.clock == pooled.clock
    assert inline_report.engine == pool_report.engine


def test_replayed_worker_events_land_at_the_batch_offset(
    catalog, pool, tmp_path
):
    stream = STREAM[:2]
    inline, _, _ = _serve(
        catalog, tmp_path, "inline.jsonl", stream, tracer=Tracer()
    )
    pooled, report, _ = _serve(
        catalog, tmp_path, "pool.jsonl", stream, tracer=Tracer(),
        parallel=1, pool=pool,
    )

    def spans(service, name):
        return [
            (ts, dur) for ph, event, _cat, ts, dur, _args
            in service.tracer.events if event == name
        ]

    batches = spans(pooled, "service.batch")
    assert batches == spans(inline, "service.batch")
    assert [ts for ts, _ in batches][1] > 0  # the second batch is offset
    # Each worker ran its query on a zero-based clock; replay shifted
    # its engine span to start exactly where its batch does.
    assert spans(pooled, "concurrent-batch") == batches
    assert spans(pooled, "concurrent-batch") == \
        spans(inline, "concurrent-batch")
    # ... and every per-scan drive span sits inside its batch's window.
    drives = [
        (ts, dur) for ph, event, _cat, ts, dur, _args
        in pooled.tracer.events if event.startswith("drive:")
    ]
    assert drives
    assert all(
        any(start <= ts and ts + dur <= start + length
            for start, length in batches)
        for ts, dur in drives
    )
    assert [o.status for o in report.outcomes] == ["ok", "ok"]


@pytest.mark.parametrize("strategy", ["baseline", "feedforward", "costbased"])
@pytest.mark.parametrize("qid", ["Q1A", "Q2A", "Q3A", "Q4A", "Q5A"])
def test_executor_batch_of_one_is_execute_plan(catalog, qid, strategy):
    query = get_query(qid)
    reference = execute_plan(
        query.build_baseline(catalog),
        ExecutionContext(catalog, strategy=make_strategy(strategy)),
    )
    run = execute_batch(
        catalog, [(query.build_baseline(catalog), strategy)]
    )
    (ran,) = run.queries
    assert ran.error is None
    assert ran.result.rows == reference.rows  # in order
    assert ran.result.metrics.clock_ticks == reference.metrics.clock_ticks
    assert run.summaries == [reference.metrics.summary()]
    assert run.seconds == reference.metrics.clock
    assert run.peak_bytes == reference.metrics.peak_state_bytes
    assert run.observed_bytes == run.peak_bytes  # no governor
    assert ran.finish == run.seconds
    assert ran.operators and ran.operators[0]["actual_rows"] == len(
        reference.rows
    )
    assert run.trace_events == []


def test_executed_plan_does_not_keep_the_result_rows(catalog):
    # The reply's rows must not wait for a collector pass with the
    # finished operator graph (they did while the graph was cyclic: a
    # 29k-row reply stayed resident until a full collection, and the
    # server's resident peak depended on how often other code happened
    # to trigger one).
    run = execute_batch(
        catalog, [(get_query("Q2A").build_baseline(catalog), "baseline")]
    )
    rows = run.queries[0].result.rows
    assert rows
    # Two holders: the result and this local (plus getrefcount's own).
    assert sys.getrefcount(rows) == 3
