"""Tests for admission control."""

import pytest

from repro.client import InProcessClient
from repro.data.tpch import cached_tpch
from repro.optimizer.cost import PlanCoster
from repro.service import QueryService
from repro.service.admission import (
    ADMIT, QUEUE, SHED, AdmissionController, estimate_query_state_bytes,
)
from repro.service.query import Request
from repro.workloads.registry import get_query


@pytest.fixture(scope="module")
def catalog():
    return cached_tpch(scale_factor=0.002)


class TestEstimate:
    def test_stateful_plans_estimate_positive(self, catalog):
        coster = PlanCoster(catalog)
        for qid in ("Q1A", "Q2A", "Q4A"):
            plan = get_query(qid).build_baseline(catalog)
            assert estimate_query_state_bytes(plan, coster) > 0

    def test_scan_only_plan_estimates_zero(self, catalog):
        from repro.plan.builder import scan
        plan = scan(catalog, "part").build()
        assert estimate_query_state_bytes(plan, PlanCoster(catalog)) == 0


class TestController:
    def test_admits_within_budget(self):
        ctl = AdmissionController(memory_budget_bytes=1000)
        assert ctl.decide(400) == ADMIT
        ctl.acquire(400)
        assert ctl.decide(400) == ADMIT

    def test_queues_past_budget(self):
        ctl = AdmissionController(memory_budget_bytes=1000)
        ctl.acquire(800)
        assert ctl.decide(400) == QUEUE
        ctl.release(800)
        assert ctl.decide(400) == ADMIT

    def test_sheds_impossible_query(self):
        ctl = AdmissionController(memory_budget_bytes=1000)
        assert ctl.decide(1500) == SHED
        assert ctl.shed == 1

    def test_lone_query_within_budget_always_admits(self):
        ctl = AdmissionController(memory_budget_bytes=1000)
        assert ctl.decide(999) == ADMIT

    def test_max_concurrent(self):
        ctl = AdmissionController(max_concurrent=2)
        ctl.acquire(1)
        ctl.acquire(1)
        assert ctl.decide(1) == QUEUE

    def test_unbounded_budget_never_sheds(self):
        ctl = AdmissionController()
        assert ctl.decide(1e12) == ADMIT

    def test_release_floors_at_zero(self):
        ctl = AdmissionController()
        ctl.release(100)
        assert ctl.in_flight_bytes == 0.0
        assert ctl.in_flight_queries == 0

    def test_rejects_bad_max_concurrent(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=0)


class TestEstimatedOnFirstRead:
    """The service costs a plan when dispatch first needs a number,
    with the optimizer's own two functions — never for a cached reply,
    never from an admin view."""

    @pytest.fixture
    def costers(self, monkeypatch):
        """Every ``PlanCoster`` the service builds, in order."""
        built = []

        class Counted(PlanCoster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr("repro.service.service.PlanCoster", Counted)
        return built

    def test_executed_query_carries_the_optimizers_estimates(
            self, catalog, costers):
        plan = get_query("Q2A").build_baseline(catalog)
        coster = PlanCoster(catalog)
        state = estimate_query_state_bytes(plan, coster)
        cost = coster.total_cost(plan)
        with QueryService(catalog, strategy="baseline") as service:
            service.submit("Q2A")
            (record,) = service._pending
            # Views of a queued query show no estimate and cause none.
            assert record.estimates is None
            assert service.proclist()[0]["state_estimate_bytes"] is None
            assert not costers
            service.run()
            assert (record.state_estimate, record.cost_estimate) == (
                state, cost,
            )
            assert len(costers) == 1
            profile = service.profiles.get(record.seq)
            assert profile.state_estimate == state
            slots = service._backend.slots
        # The admission decisions those numbers drive, either side of
        # the line: the byte budget...
        for budget, status in ((state * 1.01, "ok"), (state * 0.99, "shed")):
            with QueryService(catalog, strategy="baseline",
                              memory_budget_bytes=budget) as service:
                service.submit("Q2A")
                assert service.run().outcomes[0].status == status
        # ...and the SLO projection (one slot-share of the cost).
        for slo, status in ((cost / slots * 1.01, "ok"),
                            (cost / slots * 0.99, "shed")):
            with QueryService(catalog, strategy="baseline",
                              slo_seconds=slo) as service:
                service.submit("Q2A")
                assert service.run().outcomes[0].status == status

    def test_cached_reply_is_never_costed(self, catalog, costers):
        with InProcessClient(catalog) as client:
            assert client.query("Q1A").status == "ok"
            assert len(costers) == 1
            cached = client.query("Q1A")
            assert cached.status == "cached"
            assert len(costers) == 1
            profile = client.profile(cached.seq)
            assert profile["state_estimate_bytes"] is None
            # A front door's live-table row reads, never estimates.
            request = Request("Q1A")
            request.query = client.service._enqueue("Q1A")
            row = request.proc_row(1, client.service.clock, 0.0)
            assert row["state_estimate_bytes"] is None
            assert len(costers) == 1
