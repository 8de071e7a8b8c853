"""Tests for AIP sets and the AIP Registry."""

import pytest

from repro.aip.registry import AIPRegistry
from repro.aip.sets import HASHSET, AIPSet, AIPSetSpec
from repro.data.tpch import cached_tpch
from repro.optimizer.predicate_graph import SourcePredicateGraph
from repro.plan.builder import scan


@pytest.fixture(scope="module")
def graph():
    catalog = cached_tpch(scale_factor=0.001)
    plan = (
        scan(catalog, "part")
        .join(scan(catalog, "partsupp"), on=[("p_partkey", "ps_partkey")])
        .build()
    )
    return SourcePredicateGraph.from_plan(plan)


class TestAIPSet:
    def test_incremental_and_from_values(self):
        spec = AIPSetSpec("k", 100)
        working = AIPSet("k", spec, "test")
        for v in range(50):
            working.add(v)
        assert all(v in working for v in range(50))
        built = AIPSet.from_values("k", spec, "test2", range(50))
        assert built.complete
        assert all(v in built for v in range(50))

    def test_same_spec_sets_intersect(self):
        spec = AIPSetSpec("k", 100)
        a = AIPSet.from_values("k", spec, "a", range(0, 60))
        b = AIPSet.from_values("k", spec, "b", range(40, 100))
        merged = a.try_intersect(b)
        assert merged is not None
        assert all(v in merged for v in range(40, 60))

    def test_different_spec_sets_do_not_merge(self):
        a = AIPSet.from_values("k", AIPSetSpec("k", 100), "a", range(10))
        b = AIPSet.from_values("j", AIPSetSpec("j", 100), "b", range(10))
        assert a.try_intersect(b) is None

    def test_hashset_kind(self):
        spec = AIPSetSpec("k", 100, kind=HASHSET)
        s = AIPSet.from_values("k", spec, "x", range(20))
        assert 5 in s
        assert 99 not in s
        # Hash sets don't bitwise-merge.
        other = AIPSet.from_values("k", spec, "y", range(20))
        assert s.try_intersect(other) is None

    def test_byte_size_positive(self):
        s = AIPSet("k", AIPSetSpec("k", 1000), "x")
        assert s.byte_size() > 0


class TestRegistry:
    def _parties(self):
        return (1, 0), (2, 0), (3, 1)

    def test_candidate_elimination(self, graph):
        reg = AIPRegistry(graph)
        p1, p2, _ = self._parties()
        reg.register_candidate("p_partkey", p1)
        # Nobody else is interested: candidate dies.
        reg.register_interest("p_partkey", p1)
        surviving = reg.eliminate_unwanted_candidates()
        assert not surviving
        assert not reg.is_wanted("p_partkey")

    def test_candidate_survives_with_other_interest(self, graph):
        reg = AIPRegistry(graph)
        p1, p2, _ = self._parties()
        reg.register_candidate("p_partkey", p1)
        # Interest via the equated attribute from a different party.
        reg.register_interest("ps_partkey", p2)
        surviving = reg.eliminate_unwanted_candidates()
        assert len(surviving) == 1
        assert reg.is_wanted("p_partkey")
        assert reg.is_wanted("ps_partkey")  # same class

    def test_publish_and_vector(self, graph):
        reg = AIPRegistry(graph)
        spec = AIPSetSpec(reg.root_of("p_partkey"), 100)
        reg.set_spec(reg.root_of("p_partkey"), spec)
        s = AIPSet.from_values("p_partkey", spec, "x", range(10))
        reg.publish(s)
        # Vector reachable through any attribute of the class.
        assert len(reg.vector("ps_partkey")) == 1

    def test_publish_merges_compatible(self, graph):
        reg = AIPRegistry(graph)
        spec = AIPSetSpec(reg.root_of("p_partkey"), 100)
        first = AIPSet.from_values("p_partkey", spec, "a", range(0, 20))
        second = AIPSet.from_values("ps_partkey", spec, "b", range(10, 30))
        root = reg.root_of("p_partkey")
        assert reg.publish(first) == (root, first)
        _, merged = reg.publish(second)
        assert merged is not first and merged is not second
        assert len(reg.vector("p_partkey")) == 1  # merged by intersection
        assert reg.vector("p_partkey")[0] is merged
        assert all(v in merged for v in range(10, 20))

    def test_interest_refcounting(self, graph):
        reg = AIPRegistry(graph)
        p1, p2, _ = self._parties()
        reg.register_interest("p_partkey", p1)
        reg.register_interest("ps_partkey", p2)
        assert reg.interested_parties("p_partkey") == {p1, p2}
        assert reg.drop_interest(p1) == set()
        emptied = reg.drop_interest(p2)
        assert len(emptied) == 1
        assert not reg.interested_parties("p_partkey")
