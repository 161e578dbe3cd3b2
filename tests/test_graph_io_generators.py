"""Tests for the dataset JSON document and the random-graph generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DatasetError
from repro.graph import (
    Graph,
    InteractionStore,
    NodeFeatureStore,
    load_dataset_json,
    save_dataset_json,
)
from repro.graph.generators import (
    barabasi_albert,
    clique,
    erdos_renyi,
    paper_figure1_network,
    paper_figure7_network,
    planted_partition,
)
from repro.types import LabeledEdge, RelationType


class TestDatasetJson:
    def test_full_round_trip(self, tmp_path, fig7_graph):
        features = NodeFeatureStore(["gender"])
        features.set(1, [1.0])
        interactions = InteractionStore(num_dims=2)
        interactions.record(1, 2, 0, 3)
        labels = [LabeledEdge(1, 2, RelationType.COLLEAGUE)]

        path = tmp_path / "dataset.json"
        save_dataset_json(path, fig7_graph, features, interactions, labels)
        graph, loaded_features, loaded_interactions, loaded_labels = load_dataset_json(path)

        assert graph == fig7_graph
        assert loaded_features is not None
        np.testing.assert_allclose(loaded_features.get(1), [1.0])
        assert loaded_interactions is not None
        assert loaded_interactions.get(1, 2, 0) == 3.0
        assert loaded_labels[0].label is RelationType.COLLEAGUE

    def test_graph_only_round_trip(self, tmp_path):
        graph = Graph(edges=[(1, 2)])
        graph.add_node(5)
        path = tmp_path / "dataset.json"
        save_dataset_json(path, graph)
        loaded, features, interactions, labels = load_dataset_json(path)
        assert loaded == graph
        assert features is None and interactions is None and labels == []

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DatasetError):
            load_dataset_json(path)

    def test_wrong_format_marker_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DatasetError):
            load_dataset_json(path)

    def test_string_ids_that_int_accepts_keep_their_spelling(self, tmp_path):
        # int() accepts "007", "1_000" and "+5"; none is an int's own
        # spelling, so each stays a string beside the int it would parse to.
        graph = Graph(edges=[("007", 7), ("1_000", 1000), ("+5", 5)])
        path = tmp_path / "dataset.json"
        labels = [LabeledEdge("007", 7, RelationType.FAMILY)]
        save_dataset_json(path, graph, labels=labels)
        loaded, _, _, loaded_labels = load_dataset_json(path)
        assert loaded.num_nodes == 6
        assert loaded == graph
        assert (loaded_labels[0].u, loaded_labels[0].v) == ("007", 7)

    @pytest.mark.parametrize("graph", [Graph(edges=[(7, "7")]), Graph(nodes=["7", 1, 7])])
    def test_nodes_sharing_a_spelling_are_rejected(self, tmp_path, graph):
        with pytest.raises(DatasetError, match="'7'"):
            save_dataset_json(tmp_path / "dataset.json", graph)


class TestGenerators:
    def test_erdos_renyi_determinism_and_bounds(self):
        a = erdos_renyi(30, 0.2, seed=7)
        b = erdos_renyi(30, 0.2, seed=7)
        assert a == b
        assert a.num_nodes == 30
        assert 0 <= a.num_edges <= 30 * 29 / 2

    def test_erdos_renyi_extreme_probabilities(self):
        assert erdos_renyi(10, 0.0, seed=0).num_edges == 0
        assert erdos_renyi(10, 1.0, seed=0).num_edges == 45

    def test_erdos_renyi_validation(self):
        with pytest.raises(DatasetError):
            erdos_renyi(-1, 0.5)
        with pytest.raises(DatasetError):
            erdos_renyi(10, 1.5)

    def test_barabasi_albert_size_and_min_degree(self):
        graph = barabasi_albert(50, 3, seed=0)
        assert graph.num_nodes == 50
        assert min(graph.degrees().values()) >= 3

    def test_barabasi_albert_validation(self):
        with pytest.raises(DatasetError):
            barabasi_albert(5, 5)
        with pytest.raises(DatasetError):
            barabasi_albert(10, 0)

    def test_planted_partition_structure(self):
        graph, communities = planted_partition([8, 8], 1.0, 0.0, seed=0)
        assert graph.num_nodes == 16
        assert len(communities) == 2
        # No inter-community edges were sampled.
        for u in communities[0]:
            for v in communities[1]:
                assert not graph.has_edge(u, v)

    def test_planted_partition_validation(self):
        with pytest.raises(DatasetError):
            planted_partition([5, 5], 0.1, 0.5)

    def test_clique_generator(self):
        graph = clique(5, offset=10)
        assert set(graph.nodes()) == set(range(10, 15))
        assert graph.num_edges == 10

    def test_paper_figure7_matches_description(self):
        graph = paper_figure7_network()
        assert graph.num_nodes == 9
        assert graph.degree(1) == 5

    def test_paper_figure1_has_u1_with_five_friends(self):
        graph = paper_figure1_network()
        assert graph.degree(1) == 5
        assert graph.has_edge(2, 7)
