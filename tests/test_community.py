"""Tests for the community-detection substrate."""

from __future__ import annotations

import pytest

from repro.community import (
    connected_components,
    edge_betweenness,
    girvan_newman,
    girvan_newman_levels,
    label_propagation_communities,
    louvain_communities,
    modularity,
)
from repro.exceptions import CommunityError
from repro.graph import Graph, ego_network
from repro.graph.generators import planted_partition
from repro.types import canonical_edge


class TestConnectedComponents:
    def test_single_component(self, triangle_graph):
        components = connected_components(triangle_graph)
        assert len(components) == 1
        assert components[0] == {1, 2, 3}

    def test_multiple_components(self):
        graph = Graph(edges=[(1, 2), (3, 4)])
        graph.add_node(5)
        assert connected_components(graph) == [{1, 2}, {3, 4}, {5}]

    def test_empty_graph(self):
        assert connected_components(Graph()) == []


class TestEdgeBetweenness:
    def test_path_graph_central_edge_highest(self):
        graph = Graph(edges=[(1, 2), (2, 3), (3, 4)])
        betweenness = edge_betweenness(graph)
        assert betweenness[canonical_edge(2, 3)] == max(betweenness.values())

    def test_path_graph_exact_values(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        betweenness = edge_betweenness(graph)
        # Edge (1,2) lies on shortest paths (1,2) and (1,3): value 2.
        assert betweenness[canonical_edge(1, 2)] == pytest.approx(2.0)
        assert betweenness[canonical_edge(2, 3)] == pytest.approx(2.0)

    def test_bridge_dominates_two_cliques(self, two_cliques_graph):
        betweenness = edge_betweenness(two_cliques_graph)
        bridge = canonical_edge(3, 4)
        assert betweenness[bridge] == max(betweenness.values())
        # The bridge carries all 16 cross-clique shortest paths.
        assert betweenness[bridge] == pytest.approx(16.0)

    def test_symmetric_clique_edges_equal(self, triangle_graph):
        values = set(round(v, 9) for v in edge_betweenness(triangle_graph).values())
        assert len(values) == 1

    def test_covers_every_edge(self, fig7_graph):
        betweenness = edge_betweenness(fig7_graph)
        assert set(betweenness) == set(fig7_graph.edges())


class TestModularity:
    def test_perfect_split_is_positive(self, two_cliques_graph):
        q = modularity(two_cliques_graph, [{0, 1, 2, 3}, {4, 5, 6, 7}])
        assert q > 0.3

    def test_single_community_is_zero(self, triangle_graph):
        assert modularity(triangle_graph, [{1, 2, 3}]) == pytest.approx(0.0)

    def test_empty_graph_is_zero(self):
        assert modularity(Graph(), []) == 0.0

    def test_non_partition_raises(self, triangle_graph):
        with pytest.raises(CommunityError):
            modularity(triangle_graph, [{1, 2}])
        with pytest.raises(CommunityError):
            modularity(triangle_graph, [{1, 2, 3}, {3}])

    def test_better_partition_has_higher_modularity(self, two_cliques_graph):
        good = modularity(two_cliques_graph, [{0, 1, 2, 3}, {4, 5, 6, 7}])
        bad = modularity(two_cliques_graph, [{0, 1, 4, 5}, {2, 3, 6, 7}])
        assert good > bad


class TestGirvanNewman:
    def test_paper_figure7_ego_communities(self, fig7_graph):
        ego = ego_network(fig7_graph, 1)
        result = girvan_newman(ego)
        blocks = {frozenset(block) for block in result.communities}
        assert frozenset({2, 3, 4}) in blocks
        assert frozenset({5, 6}) in blocks

    def test_two_cliques_split(self, two_cliques_graph):
        result = girvan_newman(two_cliques_graph)
        assert sorted(len(block) for block in result.communities) == [4, 4]
        assert result.modularity > 0.3

    def test_planted_partition_recovered(self):
        graph, communities = planted_partition([10, 10, 10], 0.9, 0.01, seed=3)
        result = girvan_newman(graph)
        detected = {frozenset(block) for block in result.communities}
        for planted in communities:
            assert frozenset(planted) in detected

    def test_empty_graph(self):
        result = girvan_newman(Graph())
        assert result.communities == ()

    def test_edgeless_graph_gives_singletons(self):
        graph = Graph(nodes=[1, 2, 3])
        result = girvan_newman(graph)
        assert sorted(len(block) for block in result.communities) == [1, 1, 1]

    def test_partition_covers_all_nodes(self, fig7_graph):
        result = girvan_newman(fig7_graph)
        covered = set().union(*result.communities)
        assert covered == set(fig7_graph.nodes())

    def test_max_communities_cap(self, two_cliques_graph):
        result = girvan_newman(two_cliques_graph, max_communities=2)
        assert len(result.communities) <= 2

    def test_levels_are_monotonically_finer(self, two_cliques_graph):
        sizes = [len(partition) for partition in girvan_newman_levels(two_cliques_graph)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 1


class TestLabelPropagation:
    def test_two_cliques_split(self, two_cliques_graph):
        communities = label_propagation_communities(two_cliques_graph, seed=0)
        covered = set().union(*communities)
        assert covered == set(two_cliques_graph.nodes())
        assert len(communities) >= 2 or len(communities[0]) == 8

    def test_deterministic_for_fixed_seed(self, two_cliques_graph):
        a = label_propagation_communities(two_cliques_graph, seed=5)
        b = label_propagation_communities(two_cliques_graph, seed=5)
        assert {frozenset(x) for x in a} == {frozenset(x) for x in b}

    def test_isolated_nodes_stay_singletons(self):
        graph = Graph(nodes=[1, 2])
        communities = label_propagation_communities(graph)
        assert len(communities) == 2


class TestLouvain:
    def test_two_cliques_split(self, two_cliques_graph):
        communities = louvain_communities(two_cliques_graph, seed=0)
        blocks = {frozenset(block) for block in communities}
        assert frozenset({0, 1, 2, 3}) in blocks
        assert frozenset({4, 5, 6, 7}) in blocks

    def test_planted_partition_mostly_recovered(self):
        graph, planted = planted_partition([12, 12], 0.8, 0.02, seed=1)
        communities = louvain_communities(graph, seed=0)
        assert 1 < len(communities) <= 6
        covered = set().union(*communities)
        assert covered == set(graph.nodes())

    def test_empty_and_edgeless_graphs(self):
        assert louvain_communities(Graph()) == ()
        singletons = louvain_communities(Graph(nodes=[1, 2, 3]))
        assert sorted(len(block) for block in singletons) == [1, 1, 1]
