"""Tests for the Graph class, the Phase I oracle's ego-network extraction
and Economix's neighbourhood-overlap metric."""

from __future__ import annotations

import pytest

from repro.baselines.economix import jaccard_similarity
from repro.exceptions import EdgeNotFoundError, NodeNotFoundError, SelfLoopError
from repro.graph import Graph
from tests.division_reference import ego_network


class TestGraphBasics:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_add_edge_creates_endpoints(self):
        graph = Graph()
        graph.add_edge(1, 2)
        assert 1 in graph and 2 in graph
        assert graph.has_edge(1, 2) and graph.has_edge(2, 1)

    def test_add_duplicate_edge_is_idempotent(self):
        graph = Graph(edges=[(1, 2), (1, 2), (2, 1)])
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        graph = Graph()
        with pytest.raises(SelfLoopError):
            graph.add_edge(3, 3)

    def test_add_node_isolated(self):
        graph = Graph()
        graph.add_node(9)
        assert 9 in graph
        assert graph.degree(9) == 0

    def test_remove_edge(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        graph.remove_edge(1, 2)
        assert not graph.has_edge(1, 2)
        assert 1 in graph
        assert graph.num_edges == 1

    def test_remove_missing_edge_raises(self):
        graph = Graph(edges=[(1, 2)])
        with pytest.raises(EdgeNotFoundError):
            graph.remove_edge(1, 3)

    def test_remove_node_drops_incident_edges(self):
        graph = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        graph.remove_node(2)
        assert 2 not in graph
        assert graph.num_edges == 1
        assert graph.has_edge(1, 3)

    def test_remove_missing_node_raises(self):
        graph = Graph()
        with pytest.raises(NodeNotFoundError):
            graph.remove_node(1)

    def test_neighbors_of_missing_node_raises(self):
        graph = Graph()
        with pytest.raises(NodeNotFoundError):
            graph.neighbors(1)

    def test_degree_and_degrees(self, fig7_graph):
        assert fig7_graph.degree(1) == 5
        degrees = {node: fig7_graph.degree(node) for node in fig7_graph}
        assert degrees[1] == 5
        assert sum(degrees.values()) == 2 * fig7_graph.num_edges

    def test_edges_are_reported_once(self, triangle_graph):
        edges = list(triangle_graph.edges())
        assert len(edges) == 3
        assert len(set(edges)) == 3

    def test_subgraph_induces_only_given_nodes(self, fig7_graph):
        sub = fig7_graph.subgraph([2, 3, 4, 99])
        assert set(sub.nodes()) == {2, 3, 4}
        assert sub.num_edges == 3

    def test_subgraph_ignores_missing_nodes(self):
        graph = Graph(edges=[(1, 2)])
        sub = graph.subgraph([1, 5])
        assert set(sub.nodes()) == {1}

    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.remove_edge(1, 2)
        assert triangle_graph.has_edge(1, 2)
        assert not clone.has_edge(1, 2)

    def test_equality(self):
        a = Graph(edges=[(1, 2), (2, 3)])
        b = Graph(edges=[(2, 3), (1, 2)])
        assert a == b
        b.add_edge(3, 4)
        assert a != b

    def test_len_iter_contains(self, triangle_graph):
        assert len(triangle_graph) == 3
        assert set(iter(triangle_graph)) == {1, 2, 3}
        assert 2 in triangle_graph
        assert 9 not in triangle_graph

    def test_repr_mentions_counts(self, triangle_graph):
        assert "num_nodes=3" in repr(triangle_graph)


class TestEgoNetwork:
    def test_paper_example_ego_network(self, fig7_graph):
        ego = ego_network(fig7_graph, 1)
        assert set(ego.nodes()) == {2, 3, 4, 5, 6}
        assert ego.has_edge(2, 3) and ego.has_edge(5, 6) and ego.has_edge(4, 6)
        # Edges incident to the ego node are dropped.
        assert 1 not in ego

    def test_ego_network_contains_isolated_friends(self):
        graph = Graph(edges=[(0, 1), (0, 2)])
        ego = ego_network(graph, 0)
        assert set(ego.nodes()) == {1, 2}
        assert ego.num_edges == 0

    def test_ego_network_of_leaf_node(self, fig7_graph):
        ego = ego_network(fig7_graph, 9)
        assert set(ego.nodes()) == {6}
        assert ego.num_edges == 0

    def test_ego_network_of_missing_node_raises(self, fig7_graph):
        with pytest.raises(NodeNotFoundError):
            ego_network(fig7_graph, 42)


class TestMetrics:
    def test_jaccard_similarity_bounds_and_symmetry(self, fig7_graph):
        value = jaccard_similarity(fig7_graph, 2, 3)
        assert 0.0 < value <= 1.0
        assert value == pytest.approx(jaccard_similarity(fig7_graph, 3, 2))

    def test_jaccard_similarity_disjoint(self):
        graph = Graph(edges=[(1, 2), (3, 4)])
        assert jaccard_similarity(graph, 1, 3) == 0.0
