"""Tests for EXPLAIN ANALYZE and per-operator attribution."""

import pytest

from repro.data.tpch import cached_tpch
from repro.harness.runner import run_workload_query
from repro.obs.analyze import explain_analyze
from repro.obs.trace import Tracer, validate_chrome_trace
from repro.workloads.registry import QUERIES, get_query

SCALE = 0.001


def _analyze(qid, strategy="costbased", **kwargs):
    query = get_query(qid)
    catalog = cached_tpch(scale_factor=SCALE, skew=query.skew)
    plan = query.build(catalog, strategy == "magic")
    return explain_analyze(plan, catalog, strategy=strategy, **kwargs)


class TestExplainAnalyze:
    @pytest.mark.parametrize("qid", sorted(QUERIES))
    def test_every_workload_query_analyzes(self, qid):
        """The acceptance criterion: EXPLAIN ANALYZE runs every TPC-H
        workload query and its actuals match a plain run."""
        report = _analyze(qid)
        rendered = report.render()
        assert "est. rows" in rendered and "actual" in rendered
        assert "strategy costbased" in rendered

        reference = run_workload_query(qid, "costbased", scale_factor=SCALE)
        assert report.result.rows == reference.result.rows
        if not get_query(qid).is_distributed:
            # Distributed queries run through the coordinator (network
            # arrivals) in the harness; analyze executes the local plan.
            assert (
                report.result.metrics.clock == reference.result.metrics.clock
            )

    def test_root_actual_matches_result(self):
        report = _analyze("Q1A")
        root = report.rows[0]
        assert not root.shared
        assert root.actual_rows == len(report.result)
        assert root.est_rows > 0

    def test_attribution_covers_the_clock(self):
        """Attributed per-operator ticks are real charges: each positive
        and together no more than the query's total CPU ticks."""
        report = _analyze("Q2A")
        metrics = report.result.metrics
        attributed = sum(metrics.op_ticks.values())
        assert 0 < attributed <= metrics.clock_ticks
        # Stateful operators (joins, group-bys) report a peak.
        assert any(v > 0 for v in metrics.op_state_peaks.values())
        assert any(row.peak_state_bytes > 0 for row in report.rows)

    def test_magic_plan_renders_shared_nodes(self):
        report = _analyze("Q1A", strategy="magic")
        assert any(row.shared for row in report.rows)
        assert "(shared)" in report.render()

    def test_attribution_is_off_elsewhere(self):
        """The hot path never pays for attribution: a plain run leaves
        the attribution dicts empty."""
        record = run_workload_query("Q2A", "costbased", scale_factor=SCALE)
        assert record.result.metrics.op_ticks == {}
        assert record.result.metrics.op_state_peaks == {}

    def test_traced_analyze_emits_valid_trace(self):
        tracer = Tracer()
        report = _analyze("Q3A", tracer=tracer)
        assert len(report.result) >= 0
        assert len(tracer) > 0
        assert validate_chrome_trace(tracer.to_chrome()) == []
        names = {event[1] for event in tracer.events}
        assert "query" in names
        assert any(name.startswith("drive:") for name in names)
        assert any(name.startswith("emit:") for name in names)
