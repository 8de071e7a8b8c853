"""Tests for AIP sets and the AIP Registry."""

import pytest

from repro.aip.candidates import CandidateIndex
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


def _seeded(graph, sources=(), interest=()):
    """A registry seeded, as Feed-Forward seeds it, from an index whose
    ``sources`` and ``interest`` are ``(attr, party)`` pairs."""
    index = CandidateIndex()
    for attr, party in sources:
        index.sources.setdefault(attr, set()).add(party)
    for attr, party in interest:
        index.interested.setdefault(graph.eq.find(attr), set()).add(party)
    registry = AIPRegistry(graph)
    registry.seed(index)
    return registry, index


class TestRegistry:
    def _parties(self):
        return (1, 0), (2, 0), (3, 1)

    def test_candidate_elimination(self, graph):
        p1, p2, _ = self._parties()
        # Nobody but the producer itself is interested: candidate dies.
        reg, _ = _seeded(
            graph, sources=[("p_partkey", p1)], interest=[("p_partkey", p1)]
        )
        surviving = reg.eliminate_unwanted_candidates()
        assert not surviving
        assert not reg.is_wanted("p_partkey")

    def test_candidate_survives_with_other_interest(self, graph):
        p1, p2, _ = self._parties()
        # Interest via the equated attribute from a different party.
        reg, _ = _seeded(
            graph, sources=[("p_partkey", p1)], interest=[("ps_partkey", p2)]
        )
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
        p1, p2, _ = self._parties()
        reg, index = _seeded(
            graph, interest=[("p_partkey", p1), ("ps_partkey", p2)]
        )
        assert index.interested_in(graph, "p_partkey") == {p1, p2}
        assert reg.drop_interest(p1) == set()
        # The registry drops from the index's own sets, so a finished
        # party leaves the live-target walk too.
        assert index.interested_in(graph, "ps_partkey") == {p2}
        emptied = reg.drop_interest(p2)
        assert emptied == {graph.eq.find("p_partkey")}
        assert not index.interested_in(graph, "p_partkey")
