"""Tests for the Phase I oracle's Girvan–Newman substrate
(``tests/division_reference.py``): components, betweenness, modularity and
the GN sweep, against hand counts and the paper's examples."""

from __future__ import annotations

import pytest

from repro.exceptions import CommunityError
from repro.graph import Graph
from repro.types import canonical_edge
from tests.division_reference import (
    connected_components,
    edge_betweenness,
    ego_network,
    girvan_newman,
    girvan_newman_levels,
    modularity,
)
from tests.graph_fixtures import planted_partition


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

    def test_levels_are_monotonically_finer(self, two_cliques_graph):
        sizes = [len(partition) for partition in girvan_newman_levels(two_cliques_graph)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 1
