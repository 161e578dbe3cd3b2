"""Tests for label derivation, Phase III edge features (Eq. 4), edge labeling and results."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import (
    AgreementEdgeLabeler,
    CommCNNConfig,
    EdgeFeatureBuilder,
    EdgeLabelIndex,
    EdgeLabeler,
    GBDTConfig,
    LoCEC,
    LoCECConfig,
    community_ground_truth,
    community_key,
    divide,
    labeled_communities,
    majority_label,
    split_labeled_edges,
)
from repro.core.results import (
    CommunityClassification,
    EdgeClassification,
    LoCECResult,
)
from repro.exceptions import ModelConfigError, NotFittedError, PipelineError
from repro.types import LabeledEdge, RelationType
from tests.graph_fixtures import paper_figure7_network


@pytest.fixture
def fig7_division():
    graph = paper_figure7_network()
    return graph, divide(graph, egos=[1, 2, 3, 4, 5, 6])


def _result_vectors(division, length=3):
    """Deterministic fake r_C vectors keyed by community."""
    vectors = {}
    for community in division.all_communities():
        vector = np.zeros(length)
        vector[community.size % length] = 1.0
        vectors[community_key(community)] = vector
    return vectors


class TestLabelIndex:
    def test_lookup_is_order_insensitive(self):
        index = EdgeLabelIndex([LabeledEdge(2, 1, RelationType.FAMILY)])
        assert index.get(1, 2) is RelationType.FAMILY
        assert index.get(2, 1) is RelationType.FAMILY
        assert index.get(1, 3) is None

    def test_len_and_contains(self):
        index = EdgeLabelIndex([LabeledEdge(1, 2, RelationType.FAMILY)])
        assert len(index) == 1
        assert (2, 1) in index

    def test_majority_label_prefers_most_frequent(self):
        labels = [RelationType.COLLEAGUE] * 3 + [RelationType.FAMILY]
        assert majority_label(labels) is RelationType.COLLEAGUE

    def test_majority_label_tie_break_by_class_index(self):
        labels = [RelationType.COLLEAGUE, RelationType.FAMILY]
        assert majority_label(labels) is RelationType.FAMILY

    def test_majority_label_ignores_other(self):
        assert majority_label([RelationType.OTHER]) is None
        assert majority_label([]) is None


class TestCommunityGroundTruth:
    def test_majority_of_ego_member_edges(self, fig7_division):
        _, division = fig7_division
        community = division.community_containing(1, 2)
        index = EdgeLabelIndex(
            [
                LabeledEdge(1, 2, RelationType.COLLEAGUE),
                LabeledEdge(1, 3, RelationType.COLLEAGUE),
                LabeledEdge(1, 4, RelationType.FAMILY),
            ]
        )
        assert community_ground_truth(community, index) is RelationType.COLLEAGUE

    def test_none_when_no_labeled_member(self, fig7_division):
        _, division = fig7_division
        community = division.community_containing(1, 2)
        assert community_ground_truth(community, EdgeLabelIndex()) is None

    def test_min_labeled_members_threshold(self, fig7_division):
        _, division = fig7_division
        community = division.community_containing(1, 2)
        index = EdgeLabelIndex([LabeledEdge(1, 2, RelationType.FAMILY)])
        assert community_ground_truth(community, index, min_labeled_members=2) is None

    def test_labeled_communities_parallel_lists(self, fig7_division):
        _, division = fig7_division
        index = EdgeLabelIndex(
            [
                LabeledEdge(1, 2, RelationType.FAMILY),
                LabeledEdge(1, 5, RelationType.SCHOOLMATE),
            ]
        )
        communities, labels = labeled_communities(division, index)
        assert len(communities) == len(labels)
        assert len(communities) >= 2
        assert set(labels) <= {0, 1, 2}


class TestSplitLabeledEdges:
    def test_split_sizes(self):
        edges = [
            LabeledEdge(i, i + 1, RelationType(i % 3)) for i in range(0, 100, 1)
        ]
        train, test = split_labeled_edges(edges, train_fraction=0.8, seed=0)
        assert len(train) + len(test) == 100
        assert 15 <= len(test) <= 25

    def test_split_is_stratified(self):
        edges = [LabeledEdge(i, i + 1000, RelationType.FAMILY) for i in range(90)]
        edges += [LabeledEdge(i, i + 2000, RelationType.SCHOOLMATE) for i in range(10)]
        _, test = split_labeled_edges(edges, train_fraction=0.8, seed=1)
        assert any(item.label is RelationType.SCHOOLMATE for item in test)

    def test_empty_input(self):
        assert split_labeled_edges([]) == ([], [])


class TestEdgeFeatureBuilder:
    def test_feature_layout_and_length(self, fig7_division):
        _, division = fig7_division
        vectors = _result_vectors(division)
        builder = EdgeFeatureBuilder(division, vectors, result_vector_length=3)
        feature = builder.edge_features([(1, 2)])[0]
        assert feature.shape == (builder.feature_length,)
        assert builder.feature_length == 2 + 2 * 3
        assert 0.0 <= feature[0] <= 1.0 and 0.0 <= feature[1] <= 1.0

    def test_symmetric_in_argument_order(self, fig7_division):
        _, division = fig7_division
        builder = EdgeFeatureBuilder(division, _result_vectors(division), 3)
        forward, backward = builder.edge_features([(1, 2), (2, 1)])
        np.testing.assert_allclose(forward, backward)

    def test_missing_communities_give_zero_blocks(self, fig7_division):
        _, division = fig7_division
        builder = EdgeFeatureBuilder(division, {}, result_vector_length=3)
        feature = builder.edge_features([(6, 9)])[0]  # ego 9 was never processed
        assert feature.shape == (8,)
        np.testing.assert_allclose(feature[2:5], np.zeros(3))

    def test_batch_edge_features(self, fig7_division):
        _, division = fig7_division
        builder = EdgeFeatureBuilder(division, _result_vectors(division), 3)
        matrix = builder.edge_features([(1, 2), (1, 5)])
        assert matrix.shape == (2, 8)
        assert builder.edge_features([]).shape == (0, 8)


class TestEdgeLabeler:
    def _builder(self, fig7_division):
        _, division = fig7_division
        return EdgeFeatureBuilder(division, _result_vectors(division), 3)

    def test_fit_predict_round_trip(self, fig7_division):
        builder = self._builder(fig7_division)
        edges = [(1, 2), (1, 3), (1, 5), (1, 6), (2, 3), (5, 6)]
        labels = [0, 0, 2, 2, 0, 2]
        labeler = EdgeLabeler(builder)
        labeler.fit(edges, labels)
        predictions = labeler.predict(edges)
        assert predictions.shape == (6,)
        assert set(predictions) <= {0, 1, 2}
        assert (predictions == np.array(labels)).mean() >= 0.5

    def test_predict_types_returns_relation_types(self, fig7_division):
        builder = self._builder(fig7_division)
        labeler = EdgeLabeler(builder)
        labeler.fit([(1, 2), (1, 5)], [0, 2])
        types = labeler.predict_types([(1, 2)])
        assert isinstance(types[0], RelationType)

    def test_unfitted_predict_raises(self, fig7_division):
        builder = self._builder(fig7_division)
        with pytest.raises(NotFittedError):
            EdgeLabeler(builder).predict([(1, 2)])

    def test_fit_validation(self, fig7_division):
        builder = self._builder(fig7_division)
        labeler = EdgeLabeler(builder)
        with pytest.raises(PipelineError):
            labeler.fit([], [])
        with pytest.raises(PipelineError):
            labeler.fit([(1, 2)], [0, 1])

    def test_agreement_labeler_predicts_valid_classes(self, fig7_division):
        builder = self._builder(fig7_division)
        labeler = AgreementEdgeLabeler(builder, num_classes=3)
        predictions = labeler.predict([(1, 2), (1, 5), (6, 9)])
        assert predictions.shape == (3,)
        assert set(predictions) <= {0, 1, 2}


class TestConfigs:
    def test_default_config_is_valid(self):
        LoCECConfig().validate()

    def test_constructor_helpers(self):
        assert LoCECConfig.locec_cnn().community_model == "cnn"
        assert LoCECConfig.locec_xgb().community_model == "xgb"
        assert LoCECConfig.locec_cnn(k=10).k == 10
        assert LoCECConfig.locec_xgb(k=5).k == 5
        # An override is a constructor argument: a stale or misspelt name fails.
        with pytest.raises(TypeError):
            LoCECConfig.locec_xgb(backend="dict")
        with pytest.raises(TypeError):
            LoCECConfig.locec_cnn(bakcend="x")
        with pytest.raises(ModelConfigError):
            LoCECConfig.locec_cnn(k=0)

    def test_runtime_options_is_the_whole_config_and_json_safe(self):
        # The end-to-end benchmark records asdict(config.runtime_options).
        config = LoCECConfig.locec_xgb()
        assert config.runtime_options is config
        recorded = json.loads(json.dumps(asdict(config.runtime_options)))
        assert recorded == asdict(config)
        assert recorded["gbdt"]["num_rounds"] == config.gbdt.num_rounds

    def test_invalid_values_rejected(self):
        with pytest.raises(ModelConfigError):
            LoCECConfig(k=0).validate()
        with pytest.raises(ModelConfigError):
            LoCECConfig(community_model="svm").validate()
        with pytest.raises(ModelConfigError):
            LoCECConfig(community_detector="metis").validate()
        with pytest.raises(ModelConfigError):
            LoCECConfig(edge_lr_l2=0.0).validate()
        with pytest.raises(ModelConfigError):
            LoCECConfig(edge_lr_l2=-1.0).validate()
        with pytest.raises(ModelConfigError):
            GBDTConfig(num_rounds=0).validate()
        # Every value a model constructor rejects after Phases I-II is
        # rejected by LoCEC(config), before any work is done.
        for gbdt in (
            GBDTConfig(learning_rate=0.0),
            GBDTConfig(max_depth=0),
            GBDTConfig(min_samples_leaf=0),
            GBDTConfig(max_bins=1),
        ):
            with pytest.raises(ModelConfigError):
                LoCEC(LoCECConfig(community_model="xgb", gbdt=gbdt))
        for cnn in (
            CommCNNConfig(learning_rate=-1.0),
            CommCNNConfig(epochs=0),
            CommCNNConfig(batch_size=0),
            CommCNNConfig(num_filters=0),
            CommCNNConfig(dense_units=0),
            CommCNNConfig(dropout=-0.1),
            CommCNNConfig(dropout=1.0),
        ):
            with pytest.raises(ModelConfigError):
                LoCEC(LoCECConfig(cnn=cnn))


class TestResults:
    def _result(self):
        communities = [
            CommunityClassification(1, 0, 4, RelationType.FAMILY, (0.9, 0.05, 0.05)),
            CommunityClassification(1, 1, 12, RelationType.COLLEAGUE, (0.1, 0.8, 0.1)),
            CommunityClassification(2, 0, 10, RelationType.COLLEAGUE, (0.2, 0.7, 0.1)),
        ]
        edges = [
            EdgeClassification((1, 2), RelationType.COLLEAGUE, (0.1, 0.8, 0.1)),
            EdgeClassification((1, 3), RelationType.FAMILY, (0.7, 0.2, 0.1)),
        ]
        return LoCECResult(communities, edges)

    def test_distributions_sum_to_one(self):
        result = self._result()
        assert sum(result.community_type_distribution().values()) == pytest.approx(1.0)
        assert sum(result.edge_type_distribution().values()) == pytest.approx(1.0)

    def test_distribution_values(self):
        result = self._result()
        distribution = result.community_type_distribution()
        assert distribution[RelationType.COLLEAGUE] == pytest.approx(2 / 3)
        assert distribution[RelationType.SCHOOLMATE] == 0.0

    def test_edge_label_map(self):
        result = self._result()
        mapping = result.edge_label_map()
        assert mapping[(1, 2)] is RelationType.COLLEAGUE

    def test_mean_community_size(self):
        result = self._result()
        assert result.mean_community_size(RelationType.COLLEAGUE) == pytest.approx(11.0)
        assert result.mean_community_size(RelationType.SCHOOLMATE) == 0.0

    def test_empty_result_distributions(self):
        empty = LoCECResult()
        assert set(empty.community_type_distribution().values()) == {0.0}
        assert empty.num_communities == 0 and empty.num_edges == 0
