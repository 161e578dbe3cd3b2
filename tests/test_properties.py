"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cdf import empirical_cdf
from repro.graph import Graph, InteractionStore
from repro.ml.base import one_hot, softmax
from repro.ml.metrics import precision_recall_f1, weighted_prf
from repro.types import canonical_edge
from tests.division_reference import (
    connected_components,
    edge_betweenness,
    ego_network,
    girvan_newman,
    modularity,
)
from tests.equation_reference import tightness

# ----------------------------------------------------------------------- strategies
node_ids = st.integers(min_value=0, max_value=14)

edge_lists = st.lists(
    st.tuples(node_ids, node_ids).filter(lambda pair: pair[0] != pair[1]),
    min_size=0,
    max_size=40,
)


def build_graph(edges: list[tuple[int, int]]) -> Graph:
    return Graph(edges=edges)


# ----------------------------------------------------------------------- graph
class TestGraphProperties:
    @given(edges=edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edge_count(self, edges):
        graph = build_graph(edges)
        assert sum(graph.degree(node) for node in graph) == 2 * graph.num_edges

    @given(edges=edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_edges_are_canonical_and_unique(self, edges):
        graph = build_graph(edges)
        reported = list(graph.edges())
        assert len(reported) == len(set(reported))
        for edge in reported:
            assert edge == canonical_edge(*edge)

    @given(edges=edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_subgraph_never_adds_edges(self, edges):
        graph = build_graph(edges)
        nodes = [node for node in graph.nodes()][: graph.num_nodes // 2]
        sub = graph.subgraph(nodes)
        assert sub.num_edges <= graph.num_edges
        for u, v in sub.edges():
            assert graph.has_edge(u, v)

    @given(edges=edge_lists.filter(lambda e: len(e) > 0))
    @settings(max_examples=60, deadline=None)
    def test_ego_network_excludes_ego_and_keeps_friend_edges(self, edges):
        graph = build_graph(edges)
        ego = next(iter(graph.nodes()))
        ego_net = ego_network(graph, ego)
        assert ego not in ego_net
        assert set(ego_net.nodes()) == set(graph.neighbors(ego))
        for u, v in ego_net.edges():
            assert graph.has_edge(u, v)

    @given(u=node_ids, v=node_ids)
    @settings(max_examples=60, deadline=None)
    def test_canonical_edge_is_commutative_and_idempotent(self, u, v):
        assert canonical_edge(u, v) == canonical_edge(v, u)
        assert canonical_edge(*canonical_edge(u, v)) == canonical_edge(u, v)


# ------------------------------------------------------------------- community
class TestCommunityProperties:
    @given(edges=edge_lists)
    @settings(max_examples=30, deadline=None)
    def test_connected_components_partition_nodes(self, edges):
        graph = build_graph(edges)
        components = connected_components(graph)
        covered = [node for component in components for node in component]
        assert sorted(covered) == sorted(graph.nodes())
        assert len(covered) == len(set(covered))

    @given(edges=edge_lists)
    @settings(max_examples=20, deadline=None)
    def test_girvan_newman_partition_covers_nodes(self, edges):
        graph = build_graph(edges)
        result = girvan_newman(graph)
        covered = [node for block in result.communities for node in block]
        assert sorted(covered) == sorted(graph.nodes())
        assert len(covered) == len(set(covered))

    @given(edges=edge_lists)
    @settings(max_examples=20, deadline=None)
    def test_edge_betweenness_values_are_positive_for_every_edge(self, edges):
        graph = build_graph(edges)
        betweenness = edge_betweenness(graph)
        assert set(betweenness) == set(graph.edges())
        # Every edge lies on at least the shortest path between its endpoints.
        for value in betweenness.values():
            assert value >= 1.0 - 1e-9

    @given(edges=edge_lists)
    @settings(max_examples=20, deadline=None)
    def test_modularity_of_connected_components_is_bounded(self, edges):
        graph = build_graph(edges)
        components = connected_components(graph)
        if graph.num_edges == 0:
            return
        q = modularity(graph, components)
        assert -0.5 <= q <= 1.0

    @given(edges=edge_lists.filter(lambda e: len(e) > 0))
    @settings(max_examples=30, deadline=None)
    def test_tightness_always_in_unit_interval(self, edges):
        graph = build_graph(edges)
        ego = next(iter(graph.nodes()))
        ego_net = ego_network(graph, ego)
        if ego_net.num_nodes == 0:
            return
        result = girvan_newman(ego_net)
        for block in result.communities:
            for node in block:
                assert 0.0 <= tightness(ego_net, node, block) <= 1.0


# ------------------------------------------------------------------------- ML
class TestMlProperties:
    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=3, max_size=3),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_softmax_rows_are_distributions(self, rows):
        probabilities = softmax(np.array(rows))
        assert np.all(probabilities >= 0)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(len(rows)), atol=1e-9)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_one_hot_rows_sum_to_one(self, labels):
        encoded = one_hot(np.array(labels), num_classes=5)
        np.testing.assert_allclose(encoded.sum(axis=1), np.ones(len(labels)))
        assert np.array_equal(np.argmax(encoded, axis=1), np.array(labels))

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=60),
        st.lists(st.integers(0, 2), min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_prf_values_bounded(self, y_true, y_pred):
        size = min(len(y_true), len(y_pred))
        y_true, y_pred = y_true[:size], y_pred[:size]
        for label in (0, 1, 2):
            prf = precision_recall_f1(y_true, y_pred, label)
            assert 0.0 <= prf.precision <= 1.0
            assert 0.0 <= prf.recall <= 1.0
            assert 0.0 <= prf.f1 <= 1.0
        overall = weighted_prf(y_true, y_pred, labels=[0, 1, 2])
        assert 0.0 <= overall.f1 <= 1.0

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_perfect_predictions_have_perfect_f1(self, y_true):
        present = sorted(set(y_true))
        overall = weighted_prf(y_true, y_true, labels=present)
        assert overall.f1 == pytest.approx(1.0)


# ------------------------------------------------------------------ interactions
class TestInteractionStoreProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8),
                st.integers(0, 8),
                st.integers(0, 6),
                st.floats(0.5, 10.0),
            ).filter(lambda record: record[0] != record[1]),
            min_size=0,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_totals_match_sum_of_records(self, records):
        store = InteractionStore()
        expected: dict = {}
        for u, v, dim, count in records:
            store.record(u, v, dim, count)
            key = canonical_edge(u, v)
            expected[key] = expected.get(key, 0.0) + count
        for (u, v), total in expected.items():
            assert store.total(u, v) == pytest.approx(total)
        assert len(store) == len(expected)

    @given(st.lists(st.floats(0, 20), min_size=0, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_empirical_cdf_monotone_and_bounded(self, values):
        points = list(range(0, 21, 2))
        cdf = empirical_cdf(values, points)
        assert cdf == sorted(cdf)
        assert all(0.0 <= value <= 1.0 for value in cdf)
        if values:
            assert cdf[-1] == pytest.approx(
                sum(1 for v in values if v <= 20) / len(values)
            )
