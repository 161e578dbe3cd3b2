"""Tests for Phase I: tightness (Eq. 3) and ego-network division."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DivisionResult,
    LocalCommunity,
    community_tightness,
    divide,
    divide_ego,
    get_detector,
)
from repro.exceptions import PipelineError
from repro.graph import Graph, ego_network
from tests.equation_reference import tightness


class TestTightness:
    def test_paper_example_values(self, fig7_graph):
        """The worked example of Section IV-B: C1 = {2, 3, 4} in U1's ego network."""
        ego = ego_network(fig7_graph, 1)
        community = {2, 3, 4}
        assert tightness(ego, 2, community) == pytest.approx(1.0)
        assert tightness(ego, 3, community) == pytest.approx(1.0)
        # U4 also connects to U6 outside C1: (2/3) * (2/2) = 0.67.
        assert tightness(ego, 4, community) == pytest.approx(2 / 3, abs=1e-9)

    def test_singleton_community_is_one(self):
        ego = Graph(nodes=[7])
        assert tightness(ego, 7, {7}) == 1.0

    def test_isolated_member_of_larger_community_is_zero(self):
        ego = Graph(nodes=[1, 2, 3])
        ego.add_edge(2, 3)
        assert tightness(ego, 1, {1, 2, 3}) == 0.0

    def test_node_must_belong_to_community(self, fig7_graph):
        ego = ego_network(fig7_graph, 1)
        with pytest.raises(ValueError):
            tightness(ego, 5, {2, 3, 4})

    def test_tightness_in_unit_interval(self, fig7_graph):
        ego = ego_network(fig7_graph, 1)
        for community in ({2, 3, 4}, {5, 6}):
            for node in community:
                assert 0.0 <= tightness(ego, node, community) <= 1.0

    def test_community_tightness_covers_all_members(self, fig7_graph):
        ego = ego_network(fig7_graph, 1)
        values = community_tightness(ego, {2, 3, 4})
        assert set(values) == {2, 3, 4}


class TestDivideEgo:
    def test_paper_example_division(self, fig7_graph):
        communities = divide_ego(fig7_graph, 1)
        members = {community.members for community in communities}
        assert frozenset({2, 3, 4}) in members
        assert frozenset({5, 6}) in members

    def test_tightness_attached_to_members(self, fig7_graph):
        communities = divide_ego(fig7_graph, 1)
        for community in communities:
            assert set(community.tightness) == set(community.members)
            assert all(0.0 <= value <= 1.0 for value in community.tightness.values())

    def test_ego_with_no_friends(self):
        graph = Graph(nodes=[1])
        assert divide_ego(graph, 1) == []

    def test_leaf_ego_gets_single_singleton_community(self, fig7_graph):
        communities = divide_ego(fig7_graph, 9)
        assert len(communities) == 1
        assert communities[0].members == frozenset({6})
        assert communities[0].tightness[6] == 1.0

    def test_members_by_tightness_ordering(self, fig7_graph):
        communities = divide_ego(fig7_graph, 1)
        c1 = next(c for c in communities if c.members == frozenset({2, 3, 4}))
        ordered = c1.members_by_tightness()
        assert ordered[-1] == 4  # the loosest member comes last

    def test_members_by_tightness_cached_and_copy_safe(self, fig7_graph):
        communities = divide_ego(fig7_graph, 1)
        community = max(communities, key=lambda c: c.size)
        ordered = community.members_by_tightness()
        ordered.append("mutated")  # returned list is a copy
        assert community.members_by_tightness() == ordered[:-1]

    def test_alternative_detectors(self, fig7_graph):
        for detector in ("label_propagation", "louvain"):
            communities = divide_ego(fig7_graph, 1, detector=detector)
            covered = set().union(*(c.members for c in communities))
            assert covered == {2, 3, 4, 5, 6}

    def test_unknown_detector_raises(self):
        with pytest.raises(PipelineError):
            get_detector("spectral")


class TestDivide:
    def test_covers_requested_egos_only(self, fig7_graph):
        result = divide(fig7_graph, egos=[1, 2])
        assert set(result.communities_by_ego) == {1, 2}

    def test_default_covers_all_nodes(self, fig7_graph):
        result = divide(fig7_graph)
        assert result.num_egos == fig7_graph.num_nodes

    def test_community_containing(self, fig7_graph):
        result = divide(fig7_graph, egos=[1])
        community = result.community_containing(1, 2)
        assert community is not None and 2 in community
        assert result.community_containing(1, 99) is None
        assert result.community_containing(42, 2) is None

    def test_all_communities_and_sizes(self, fig7_graph):
        result = divide(fig7_graph, egos=[1, 9])
        sizes = result.community_sizes()
        assert len(sizes) == result.num_communities
        assert sum(sizes) == sum(c.size for c in result.all_communities())

    def test_every_friend_appears_in_exactly_one_local_community(self, fig7_graph):
        result = divide(fig7_graph)
        for ego, communities in result.communities_by_ego.items():
            friends = set(fig7_graph.neighbors(ego))
            covered: list = []
            for community in communities:
                covered.extend(community.members)
            assert sorted(map(repr, covered)) == sorted(map(repr, friends))

    def test_local_community_contains_protocol(self, fig7_graph):
        result = divide(fig7_graph, egos=[1])
        community = result.community_containing(1, 5)
        assert isinstance(community, LocalCommunity)
        assert 5 in community and 2 not in community

    def test_empty_result_helpers(self):
        result = DivisionResult()
        assert result.num_egos == 0
        assert result.num_communities == 0
        assert list(result.all_communities()) == []
        assert result.communities_of(3) == []


DETECTOR_NAMES = ("girvan_newman", "label_propagation", "louvain")


@st.composite
def graphs_with_dirty_egos(draw):
    """A random graph (some nodes isolated, int and str labels mixed) and a
    set of egos to re-divide."""
    num_nodes = draw(st.integers(2, 30))
    nodes = [f"u{i}" if i % 3 == 0 else i for i in range(num_nodes)]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    edges = [(u, v) for u, v in draw(st.lists(pairs, max_size=90)) if u != v]
    graph = Graph(edges=edges, nodes=nodes)
    egos = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=6, unique=True))
    return graph, egos


@given(case=graphs_with_dirty_egos(), detector=st.sampled_from(DETECTOR_NAMES))
@settings(max_examples=60, deadline=None)
def test_a_neighborhood_snapshot_divides_like_the_network(case, detector):
    # A write re-divides its dirty egos on the subgraph of their closed
    # neighbourhoods; members, tightness and index must be the network's.
    graph, egos = case
    snapshot = graph.neighborhood_subgraph(egos)
    expected = divide(graph, egos=egos, detector=detector).communities_by_ego
    actual = divide(snapshot, egos=egos, detector=detector).communities_by_ego
    assert set(actual) == set(expected)
    for ego, communities in expected.items():
        assert [
            (c.members, c.tightness, c.index) for c in actual[ego]
        ] == [(c.members, c.tightness, c.index) for c in communities]
