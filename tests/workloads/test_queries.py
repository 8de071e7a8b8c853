"""Tests for the Table I workload queries.

For every variant: the plan validates, executes, matches the reference
evaluator, magic preserves results, and all strategies agree.
"""

import pytest

from repro.aip.feedforward import FeedForwardStrategy
from repro.aip.manager import CostBasedStrategy
from repro.data.tpch import cached_tpch
from repro.exec.context import ExecutionContext
from repro.exec.engine import execute_plan
from repro.plan.validate import validate_plan
from repro.workloads.registry import (
    FIG5_QUERIES, FIG6_QUERIES, FIG13_QUERIES, QUERIES, get_query,
)

from tests.helpers import reference_execute, rows_equal

SF = 0.005
ALL_QIDS = sorted(QUERIES)


def catalog_for(query):
    return cached_tpch(scale_factor=SF, skew=query.skew)


class TestRegistry:
    def test_all_19_variants_present(self):
        # 5 (Q1) + 5 (Q2) + 5 (Q3) + 2 (Q4) + 2 (Q5)
        assert len(QUERIES) == 19
        assert set(FIG5_QUERIES) <= set(QUERIES)
        assert set(FIG6_QUERIES) <= set(QUERIES)
        assert set(FIG13_QUERIES) <= set(QUERIES)

    def test_get_query_unknown(self):
        with pytest.raises(KeyError):
            get_query("Q9Z")

    def test_figure_lists_match_paper(self):
        assert FIG5_QUERIES == ["Q3A", "Q3B", "Q3D", "Q3E",
                                "Q1A", "Q1B", "Q1D", "Q1E"]
        assert FIG6_QUERIES == ["Q2A", "Q2B", "Q2C", "Q2D", "Q2E"]
        assert FIG13_QUERIES == ["Q4A", "Q5A", "Q4B", "Q5B", "Q3C", "Q1C"]

    def test_nested_queries_have_magic(self):
        for qid in FIG5_QUERIES + FIG6_QUERIES:
            assert get_query(qid).has_magic
        for qid in ("Q4A", "Q4B", "Q5A", "Q5B"):
            assert not get_query(qid).has_magic

    def test_remote_variants(self):
        assert get_query("Q1C").is_distributed
        assert get_query("Q3C").is_distributed
        assert not get_query("Q1A").is_distributed


class TestPlansValid:
    @pytest.mark.parametrize("qid", ALL_QIDS)
    def test_baseline_plan_validates(self, qid):
        query = get_query(qid)
        catalog = catalog_for(query)
        validate_plan(query.build_baseline(catalog), catalog)

    @pytest.mark.parametrize(
        "qid", [q for q in ALL_QIDS if QUERIES[q].has_magic]
    )
    def test_magic_plan_validates(self, qid):
        query = get_query(qid)
        catalog = catalog_for(query)
        validate_plan(query.build(catalog, magic=True), catalog)


class TestResults:
    @pytest.mark.parametrize("qid", ALL_QIDS)
    def test_baseline_matches_reference(self, qid):
        query = get_query(qid)
        catalog = catalog_for(query)
        plan = query.build_baseline(catalog)
        result = execute_plan(plan, ExecutionContext(catalog))
        assert rows_equal(result.rows, reference_execute(plan, catalog))

    @pytest.mark.parametrize(
        "qid", [q for q in ALL_QIDS if QUERIES[q].has_magic]
    )
    def test_magic_matches_baseline(self, qid):
        query = get_query(qid)
        catalog = catalog_for(query)
        base = execute_plan(query.build_baseline(catalog), ExecutionContext(catalog))
        magic = execute_plan(query.build(catalog, magic=True), ExecutionContext(catalog))
        assert rows_equal(base.rows, magic.rows)

    @pytest.mark.parametrize("qid", ALL_QIDS)
    def test_aip_strategies_match_baseline(self, qid):
        query = get_query(qid)
        catalog = catalog_for(query)
        base = execute_plan(query.build_baseline(catalog), ExecutionContext(catalog))
        ff = execute_plan(
            query.build_baseline(catalog),
            ExecutionContext(catalog, strategy=FeedForwardStrategy()),
        )
        cb = execute_plan(
            query.build_baseline(catalog),
            ExecutionContext(catalog, strategy=CostBasedStrategy()),
        )
        assert rows_equal(base.rows, ff.rows)
        assert rows_equal(base.rows, cb.rows)


class TestSelectivities:
    """The predicates must keep roughly their paper selectivities."""

    def test_q1_parent_is_selective(self):
        query = get_query("Q1A")
        catalog = catalog_for(query)
        result = execute_plan(query.build_baseline(catalog), ExecutionContext(catalog))
        n_parts = len(catalog.table("part"))
        assert 0 < len(result) < n_parts * 0.2

    def test_q1e_weaker_than_q1a(self):
        qa, qe = get_query("Q1A"), get_query("Q1E")
        catalog = catalog_for(qa)
        ra = execute_plan(qa.build_baseline(catalog), ExecutionContext(catalog))
        re_ = execute_plan(qe.build_baseline(catalog), ExecutionContext(catalog))
        assert len(re_) >= len(ra)

    def test_q2_returns_single_row(self):
        query = get_query("Q2A")
        catalog = catalog_for(query)
        result = execute_plan(query.build_baseline(catalog), ExecutionContext(catalog))
        assert len(result) == 1

    def test_q4_groups_by_middle_east_nations(self):
        query = get_query("Q4A")
        catalog = catalog_for(query)
        result = execute_plan(query.build_baseline(catalog), ExecutionContext(catalog))
        names = {r[0] for r in result.rows}
        middle_east = {"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"}
        assert names <= middle_east
        assert len(names) > 0

    def test_q5_years_in_range(self):
        query = get_query("Q5A")
        catalog = catalog_for(query)
        result = execute_plan(query.build_baseline(catalog), ExecutionContext(catalog))
        years = {r[1] for r in result.rows}
        assert years <= set(range(1992, 1999))
        assert len(result) > 0
