"""Tests for Phase II feature aggregation (Eq. 1, Eq. 2, Algorithm 1) and CommCNN."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CommCNNConfig,
    FeatureMatrixBuilder,
    build_commcnn_classifier,
    divide,
    interaction_feature_vector,
)
from repro.exceptions import ModelConfigError, PipelineError
from repro.graph import InteractionStore, NodeFeatureStore
from tests.equation_reference import interact
from tests.graph_fixtures import paper_figure7_network


@pytest.fixture
def fig7_setup():
    """Ego-1 communities of the Figure 7 network plus small feature/interaction stores."""
    graph = paper_figure7_network()
    communities = divide(graph, egos=[1]).communities_of(1)
    c1 = next(c for c in communities if c.members == frozenset({2, 3, 4}))
    c2 = next(c for c in communities if c.members == frozenset({5, 6}))

    interactions = InteractionStore(num_dims=2)
    interactions.record(2, 3, 0, 4)   # dim 0 inside C1
    interactions.record(2, 4, 0, 2)
    interactions.record(3, 4, 1, 6)   # dim 1 inside C1
    interactions.record(5, 6, 0, 10)  # dim 0 inside C2

    features = NodeFeatureStore(["gender", "age"])
    for node in (2, 3, 4, 5, 6):
        features.set(node, [node % 2, float(node)])
    return c1, c2, features, interactions


class TestInteract:
    def test_share_of_community_interactions(self, fig7_setup):
        c1, _, _, interactions = fig7_setup
        # Dim 0 totals inside C1: (2,3)=4, (2,4)=2 → denominator 6.
        assert interact(2, c1.members, 0, interactions) == pytest.approx(1.0)
        assert interact(3, c1.members, 0, interactions) == pytest.approx(4 / 6)
        assert interact(4, c1.members, 0, interactions) == pytest.approx(2 / 6)

    def test_zero_when_no_interaction_on_dimension(self, fig7_setup):
        c1, _, _, interactions = fig7_setup
        assert interact(2, c1.members, 1, interactions) == 0.0

    def test_zero_when_community_is_silent(self, fig7_setup):
        _, c2, _, interactions = fig7_setup
        assert interact(5, c2.members, 1, interactions) == 0.0

    def test_vector_matches_per_dimension_calls(self, fig7_setup):
        c1, _, _, interactions = fig7_setup
        vector = interaction_feature_vector(3, c1.members, interactions)
        assert vector.shape == (2,)
        assert vector[0] == pytest.approx(interact(3, c1.members, 0, interactions))
        assert vector[1] == pytest.approx(interact(3, c1.members, 1, interactions))

    def test_shares_sum_to_at_most_two(self, fig7_setup):
        """Each pair interaction is attributed to both endpoints, so the sum of
        member shares per dimension is exactly 2 when any interaction exists."""
        c1, _, _, interactions = fig7_setup
        total = sum(
            interaction_feature_vector(node, c1.members, interactions)[0]
            for node in c1.members
        )
        assert total == pytest.approx(2.0)


class TestFeatureMatrixBuilder:
    def test_matrix_shape_and_padding(self, fig7_setup):
        c1, _, features, interactions = fig7_setup
        builder = FeatureMatrixBuilder(features, interactions, k=5)
        result = builder.feature_matrices([c1])[0]
        assert result.matrix.shape == (5, 2 + 2)
        assert len(result.member_order) == 3
        # Padding rows are all zeros.
        np.testing.assert_allclose(result.matrix[3:], np.zeros((2, 4)))

    def test_rows_ordered_by_tightness(self, fig7_setup):
        c1, _, features, interactions = fig7_setup
        builder = FeatureMatrixBuilder(features, interactions, k=5)
        result = builder.feature_matrices([c1])[0]
        assert result.member_order[-1] == 4  # loosest member last

    def test_truncates_to_k_rows(self, fig7_setup):
        c1, _, features, interactions = fig7_setup
        builder = FeatureMatrixBuilder(features, interactions, k=2)
        result = builder.feature_matrices([c1])[0]
        assert result.matrix.shape[0] == 2
        assert len(result.member_order) == 2
        assert 4 not in result.member_order  # lowest-tightness member dropped

    def test_row_contents_interactions_then_features(self, fig7_setup):
        c1, _, features, interactions = fig7_setup
        builder = FeatureMatrixBuilder(features, interactions, k=3)
        result = builder.feature_matrices([c1])[0]
        first_member = result.member_order[0]
        np.testing.assert_allclose(
            result.matrix[0, :2],
            interaction_feature_vector(first_member, c1.members, interactions),
        )
        np.testing.assert_allclose(result.matrix[0, 2:], features.get(first_member))

    def test_tensor_shape(self, fig7_setup):
        c1, c2, features, interactions = fig7_setup
        builder = FeatureMatrixBuilder(features, interactions, k=4)
        tensor = builder.matrices_as_tensor([c1, c2])
        assert tensor.shape == (2, 1, 4, 4)
        assert builder.matrices_as_tensor([]).shape == (0, 1, 4, 4)

    def test_statistic_vector_length_and_values(self, fig7_setup):
        c1, _, features, interactions = fig7_setup
        builder = FeatureMatrixBuilder(features, interactions, k=4)
        vector = builder.statistic_vectors([c1])[0]
        assert vector.shape == (2 * 4 + 1,)
        assert vector[-1] == 3.0  # community size
        # Mean of the age feature over members 2, 3, 4.
        assert vector[2 + 1] == pytest.approx(3.0)

    def test_statistic_vectors_stacking(self, fig7_setup):
        c1, c2, features, interactions = fig7_setup
        builder = FeatureMatrixBuilder(features, interactions, k=4)
        matrix = builder.statistic_vectors([c1, c2])
        assert matrix.shape == (2, 9)
        assert builder.statistic_vectors([]).shape == (0, 9)

    def test_invalid_k(self, fig7_setup):
        _, _, features, interactions = fig7_setup
        with pytest.raises(PipelineError):
            FeatureMatrixBuilder(features, interactions, k=0)

    def test_unknown_member_features_default_to_zero(self, fig7_setup):
        c1, _, _, interactions = fig7_setup
        empty_features = NodeFeatureStore(["gender", "age"])
        builder = FeatureMatrixBuilder(empty_features, interactions, k=3)
        result = builder.feature_matrices([c1])[0]
        np.testing.assert_allclose(result.matrix[:, 2:], np.zeros((3, 2)))


def _probabilities(rng, k, num_columns, **branch_toggles):
    """A one-epoch CommCNN's probabilities on four random rows."""
    config = CommCNNConfig(epochs=1)
    clf = build_commcnn_classifier(k, num_columns, 3, config=config, **branch_toggles)
    X = rng.normal(size=(6, 1, k, num_columns))
    return clf.fit(X, np.array([0, 1, 2] * 2)).predict_proba(X[:4])


class TestCommCNN:
    def test_model_output_width_is_num_classes(self, rng):
        assert _probabilities(rng, 10, 8).shape == (4, 3)

    def test_branch_toggles(self, rng):
        proba = _probabilities(
            rng, 10, 8, include_wide_branch=False, include_long_branch=False
        )
        assert proba.shape == (4, 3)

    def test_all_branches_disabled_raises(self):
        with pytest.raises(ModelConfigError):
            build_commcnn_classifier(
                k=10,
                num_columns=8,
                num_classes=3,
                include_square_branch=False,
                include_wide_branch=False,
                include_long_branch=False,
            )

    def test_small_k_still_builds(self, rng):
        assert _probabilities(rng, 2, 5).shape == (4, 3)

    def test_invalid_arguments(self):
        with pytest.raises(ModelConfigError):
            build_commcnn_classifier(k=0, num_columns=5, num_classes=3)
        with pytest.raises(ModelConfigError):
            build_commcnn_classifier(k=5, num_columns=5, num_classes=1)

    def test_config_validation(self):
        config = CommCNNConfig(num_filters=0)
        with pytest.raises(ModelConfigError):
            config.validate()

    def test_classifier_learns_synthetic_pattern(self, rng):
        """CommCNN separates two classes that differ in their row statistics."""
        k, columns = 8, 6
        n = 120
        X = rng.normal(size=(n, 1, k, columns)) * 0.2
        y = np.array([0, 1] * (n // 2))
        X[y == 1, 0, :, 0] += 1.5  # class 1 has a shifted first column
        config = CommCNNConfig(epochs=20, num_filters=4, dense_units=16, dropout=0.0)
        clf = build_commcnn_classifier(k, columns, num_classes=2, config=config)
        clf.fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.9
