"""Tests for the harness: strategies and runner."""

import pytest

from repro.harness.runner import RunRecord, run_workload_query
from repro.harness.strategies import STRATEGIES, make_strategy, uses_magic_plan


class TestStrategies:
    def test_strategy_names(self):
        assert STRATEGIES == ("baseline", "magic", "feedforward", "costbased")

    def test_make_strategy(self):
        from repro.aip.feedforward import FeedForwardStrategy
        from repro.aip.manager import CostBasedStrategy

        assert make_strategy("baseline") is None
        assert make_strategy("magic") is None
        assert isinstance(make_strategy("feedforward"), FeedForwardStrategy)
        assert isinstance(make_strategy("costbased"), CostBasedStrategy)

    def test_make_strategy_kwargs(self):
        strategy = make_strategy("feedforward", fp_rate=0.01)
        assert strategy.fp_rate == 0.01

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            make_strategy("voodoo")

    def test_uses_magic_plan(self):
        assert uses_magic_plan("magic")
        assert not uses_magic_plan("baseline")


class TestRunner:
    def test_run_record_fields(self):
        record = run_workload_query("Q3A", "baseline", scale_factor=0.002)
        assert isinstance(record, RunRecord)
        assert record.qid == "Q3A"
        assert record.virtual_seconds > 0
        assert record.peak_state_mb > 0
        assert "result_rows" in record.summary

    def test_strategies_same_rows(self):
        rows = {
            s: run_workload_query("Q3A", s, scale_factor=0.002).summary["result_rows"]
            for s in STRATEGIES
        }
        assert len(set(rows.values())) == 1

    def test_delayed_run_is_slower(self):
        fast = run_workload_query("Q1A", "baseline", scale_factor=0.002)
        slow = run_workload_query(
            "Q1A", "baseline", scale_factor=0.002, delayed=True
        )
        assert slow.virtual_seconds > fast.virtual_seconds

    def test_distributed_query_fetches_bytes(self):
        record = run_workload_query("Q1C", "baseline", scale_factor=0.002)
        assert record.summary["network_bytes"] > 0

    def test_distributed_costbased_ships(self):
        record = run_workload_query("Q1C", "costbased", scale_factor=0.002)
        baseline = run_workload_query("Q1C", "baseline", scale_factor=0.002)
        assert record.summary["result_rows"] == baseline.summary["result_rows"]

    def test_short_circuit_flag_passthrough(self):
        on = run_workload_query("Q2A", "baseline", scale_factor=0.002)
        off = run_workload_query(
            "Q2A", "baseline", scale_factor=0.002, short_circuit=False
        )
        assert off.peak_state_mb > on.peak_state_mb

    def test_determinism_across_calls(self):
        a = run_workload_query("Q3A", "feedforward", scale_factor=0.002)
        b = run_workload_query("Q3A", "feedforward", scale_factor=0.002)
        assert a.virtual_seconds == b.virtual_seconds
        assert a.peak_state_mb == b.peak_state_mb

