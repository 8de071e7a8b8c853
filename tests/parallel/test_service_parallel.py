"""The service front door in parallel mode: same rows and statuses as
serial, per-tenant fair interleaving, SLO-aware shedding, and clean
degradation when a worker dies or a plan cannot cross the wire.
"""

import types

import pytest

from repro.data.tpch import cached_tpch
from repro.parallel import CatalogSpec
from repro.parallel.tasks import CrashTask
from repro.service import ERROR, OK, SHED_STATUS, QueryService
from repro.service.service import _fair_interleave
from repro.service.workload import parse_workload
from repro.workloads.registry import get_query

SCALE = 0.001
QIDS = ("Q2A", "Q4A", "Q2A")


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=SCALE)


@pytest.fixture(scope="module")
def spec():
    return CatalogSpec.tpch(scale_factor=SCALE)


def _entry(seq, tenant):
    return types.SimpleNamespace(seq=seq, tenant=tenant)


class TestFairInterleave:
    def test_single_tenant_order_unchanged(self):
        entries = [_entry(i, None) for i in range(4)]
        assert _fair_interleave(entries) == entries

    def test_round_robin_across_tenants(self):
        entries = [
            _entry(0, "a"), _entry(1, "a"), _entry(2, "a"),
            _entry(3, "b"), _entry(4, "c"),
        ]
        assert [e.seq for e in _fair_interleave(entries)] == [0, 3, 4, 1, 2]

    def test_within_tenant_order_preserved(self):
        entries = [_entry(i, "ab"[i % 2]) for i in range(6)]
        out = _fair_interleave(entries)
        assert [e.seq for e in out if e.tenant == "a"] == [0, 2, 4]
        assert [e.seq for e in out if e.tenant == "b"] == [1, 3, 5]


def test_workload_tenant_syntax():
    items = parse_workload("Q1A * 2 !costbased %acme\nQ2A")
    assert len(items) == 3
    assert items[0].tenant == "acme"
    assert items[0].strategy == "costbased"
    assert items[2].tenant is None


@pytest.mark.parametrize("strategy", ["baseline", "feedforward"])
def test_parallel_matches_serial(catalog, spec, strategy):
    serial = QueryService(catalog, strategy=strategy)
    for qid in QIDS:
        serial.submit(qid)
    serial_report = serial.run()
    serial.close()

    par = QueryService(
        catalog, strategy=strategy, parallel=2, catalog_spec=spec,
    )
    for i, qid in enumerate(QIDS):
        par.submit(qid, tenant="t%d" % (i % 2))
    par_report = par.run()

    assert [o.status for o in par_report.outcomes] == \
        [o.status for o in serial_report.outcomes]
    for a, b in zip(serial_report.outcomes, par_report.outcomes):
        if a.result is not None and b.result is not None:
            assert a.result.sorted_rows() == b.result.sorted_rows(), a.label
    snap = par.registry.snapshot()
    assert snap["pool.tasks_dispatched"]["value"] >= 1
    assert snap["pool.workers"]["value"] == 2
    par.close()


def test_slo_shedding(catalog):
    svc = QueryService(
        catalog, strategy="baseline", slo_seconds=1e-12, result_cache=False,
    )
    svc.submit("Q2A")
    svc.submit("Q4A")
    report = svc.run()
    svc.close()
    assert all(o.status == SHED_STATUS for o in report.outcomes)
    assert svc.registry.counter("slo.shed").value == 2


def test_unpicklable_plan_fails_cleanly_and_releases_admission(
    catalog, spec
):
    svc = QueryService(
        catalog, strategy="baseline", parallel=2, catalog_spec=spec,
        result_cache=False, aip_cache=False,
    )
    plan = get_query("Q2A").build_baseline(catalog)
    plan.unpicklable = lambda: None  # lambdas cannot pickle
    svc.submit(plan, label="poison")
    svc.submit("Q4A")
    report = svc.run()
    statuses = {o.label: o.status for o in report.outcomes}
    assert statuses["poison"] == ERROR
    assert statuses["Q4A"] == OK
    assert svc.registry.counter("queries.failed").value == 1
    # admission fully released: the failed query must not leak a slot
    assert svc.admission.in_flight_queries == 0
    svc.submit("Q2A")
    again = svc.run()
    assert again.outcomes[0].status == OK
    svc.close()


def test_worker_crash_respawns_and_service_recovers(catalog, spec):
    svc = QueryService(
        catalog, strategy="baseline", parallel=1, catalog_spec=spec,
        result_cache=False, aip_cache=False,
    )
    pool = svc._backend.ensure_pool()
    (crash,) = pool.gather([pool.submit(CrashTask())])
    assert crash.error is not None and "died" in crash.error
    svc.submit("Q2A")
    report = svc.run()
    assert report.outcomes[0].status == OK
    assert svc.registry.counter("pool.workers_respawned").value == 1
    svc.close()


def test_parallel_rejects_memory_budget(catalog, spec):
    with pytest.raises(ValueError):
        QueryService(
            catalog, parallel=2, catalog_spec=spec,
            memory_budget=1 << 20,
        )
