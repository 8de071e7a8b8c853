"""Tests for batch schedulers."""

import pytest

from repro.data.tpch import cached_tpch
from repro.optimizer.cost import PlanCoster
from repro.service import QueryService
from repro.service.schedulers import (
    FifoScheduler, ShortestCostFirstScheduler, make_scheduler, SCHEDULERS,
)


class _Entry:
    def __init__(self, seq, arrival, cost):
        self.seq = seq
        self.arrival = arrival
        self.cost_estimate = cost


class TestSchedulers:
    def test_fifo_orders_by_arrival_then_seq(self):
        entries = [
            _Entry(1, 0.5, 10.0), _Entry(2, 0.0, 99.0), _Entry(3, 0.0, 1.0),
        ]
        ordered = FifoScheduler().order(entries)
        assert [e.seq for e in ordered] == [2, 3, 1]

    def test_sjf_orders_by_cost(self):
        entries = [
            _Entry(1, 0.0, 10.0), _Entry(2, 0.0, 1.0), _Entry(3, 0.0, 5.0),
        ]
        ordered = ShortestCostFirstScheduler().order(entries)
        assert [e.seq for e in ordered] == [2, 3, 1]

    def test_order_does_not_mutate_input(self):
        entries = [_Entry(1, 1.0, 1.0), _Entry(2, 0.0, 2.0)]
        FifoScheduler().order(entries)
        assert [e.seq for e in entries] == [1, 2]

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_factory(self, name):
        assert make_scheduler(name).describe() == name

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("lottery")

    def test_sjf_orders_service_records_by_optimizer_cost(self):
        # The records estimate on first read; SJF is that first read,
        # and must see the cost the optimizer gives the same plan.
        catalog = cached_tpch(scale_factor=0.002)
        texts = ["Q2A", "select p_partkey from part where p_size = 1",
                 "Q1A", "Q4A"]
        with QueryService(catalog, scheduler="sjf") as service:
            for text in texts:
                service.submit(text)
            costs = {
                record.seq: PlanCoster(catalog).total_cost(record.plan)
                for record in service._pending
            }
            assert all(r.estimates is None for r in service._pending)
            ordered = service.scheduler.order(service._pending)
            assert [r.seq for r in ordered] == sorted(
                costs, key=lambda seq: (costs[seq], seq)
            )
            assert [r.cost_estimate for r in ordered] == sorted(
                costs.values()
            )
