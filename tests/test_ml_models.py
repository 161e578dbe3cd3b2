"""Tests for logistic regression, regression trees and gradient boosting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    DimensionMismatchError,
    FeatureError,
    ModelConfigError,
    NotFittedError,
    TrainingDivergedError,
)
from repro.ml import (
    GradientBoostedClassifier,
    GradientRegressionTree,
    LogisticRegression,
    RegressionTreeConfig,
)
from repro.ml.logistic import GRADIENT_TOLERANCE
from tests.exact_reference import ReferenceBoostedClassifier, forest_leaf_indices


def _linearly_separable(n: int = 120, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


def _three_class_blobs(n: int = 150, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    X = np.vstack([rng.normal(loc=center, scale=0.6, size=(n // 3, 2)) for center in centers])
    y = np.repeat(np.arange(3), n // 3)
    return X, y


def _descent_fit(X: np.ndarray, y: np.ndarray, l2: float) -> LogisticRegression:
    """Oracle: 400 full-batch gradient steps at step size 0.5 on the same
    objective from zero, written into a fitted model's parameters."""
    model = LogisticRegression(l2=l2).fit(X, y)
    num_classes = model.bias_.shape[0]
    design = np.hstack([X, np.ones((len(y), 1))])
    targets = np.eye(num_classes)[y]
    theta = np.zeros((design.shape[1], num_classes))
    for _ in range(400):
        logits = design @ theta
        probabilities = np.exp(logits - logits.max(axis=1, keepdims=True))
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        theta -= 0.5 * (design.T @ (probabilities - targets) / len(y) + l2 * theta)
    model.weights_, model.bias_ = theta[:-1], theta[-1]
    return model


def _gradient(model: LogisticRegression, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    design = np.hstack([X, np.ones((len(y), 1))])
    error = model.predict_proba(X) - np.eye(model.bias_.shape[0])[y]
    theta = np.vstack([model.weights_, model.bias_])
    return design.T @ error / len(y) + model.l2 * theta


class TestLogisticRegression:
    def test_learns_linear_boundary(self):
        X, y = _linearly_separable()
        model = LogisticRegression().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_three_class_problem(self):
        X, y = _three_class_blobs()
        model = LogisticRegression().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95
        probabilities = model.predict_proba(X)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(len(y)), atol=1e-9)

    def test_loss_decreases(self):
        """The fit is the objective's minimiser: its gradient is below the
        solve's tolerance, and no 400-step descent reaches a lower loss."""
        for X, y in (_linearly_separable(), _three_class_blobs()):
            for l2 in (1e-4, 1e-2):
                model = LogisticRegression(l2=l2).fit(X, y)
                assert np.abs(_gradient(model, X, y)).max() < GRADIENT_TOLERANCE
                assert model.loss(X, y) <= _descent_fit(X, y, l2).loss(X, y)

    def test_unsolvable_fit_raises_and_keeps_the_model(self):
        X, y = _linearly_separable()
        model = LogisticRegression().fit(X, y)
        weights = model.weights_.copy()
        X_bad = X.copy()
        X_bad[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            model.fit(X_bad, y)
        assert np.array_equal(model.weights_, weights)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict(np.zeros((2, 3)))

    def test_single_row_prediction(self):
        X, y = _linearly_separable()
        model = LogisticRegression().fit(X, y)
        assert model.predict_proba(X[0]).shape == (1, 2)

    @pytest.mark.parametrize("width", (3, 5))  # narrower, wider than the fitted 4
    def test_feature_count_mismatch_rejected(self, width):
        # Used to die with a bare NumPy ValueError from the matmul.
        X, y = _linearly_separable()
        model = LogisticRegression().fit(X, y)
        for method in ("predict", "predict_proba"):
            with pytest.raises(DimensionMismatchError, match="fitted on 4 features"):
                getattr(model, method)(np.zeros((6, width)))
        with pytest.raises(DimensionMismatchError):
            model.predict(np.zeros(width))  # a single row is checked too

    def test_invalid_hyperparameters(self):
        with pytest.raises(ModelConfigError):
            LogisticRegression(l2=-1.0)
        with pytest.raises(ModelConfigError):
            LogisticRegression(l2=0.0)
        with pytest.raises(TypeError):
            LogisticRegression(num_iterations=400)

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        y = np.zeros(5, dtype=int)
        with pytest.raises(ModelConfigError):
            LogisticRegression().fit(X, y)

    def test_explicit_num_classes_allows_missing_class_in_train(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 1])
        model = LogisticRegression(num_classes=3).fit(X, y)
        assert model.predict_proba(X).shape == (3, 3)
        assert np.isfinite(model.bias_).all()


class TestRegressionTree:
    def test_fits_a_simple_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        gradients = np.where(X[:, 0] < 0.5, -1.0, 1.0)
        hessians = np.ones(50)
        tree = GradientRegressionTree(RegressionTreeConfig(max_depth=2)).fit(
            X, gradients, hessians
        )
        predictions = tree.predict(X)
        # Leaf weight is -G/(H+λ): negative gradients → positive weights.
        assert predictions[0] > 0 > predictions[-1]

    def test_respects_max_depth(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        gradients = rng.normal(size=200)
        tree = GradientRegressionTree(RegressionTreeConfig(max_depth=2)).fit(
            X, gradients, np.ones(200)
        )
        assert tree.depth <= 2

    def test_pure_leaf_when_no_split_improves(self):
        X = np.ones((10, 2))
        gradients = np.full(10, -1.0)
        tree = GradientRegressionTree().fit(X, gradients, np.ones(10))
        assert tree.num_leaves_ == 1

    def test_apply_returns_valid_leaf_ids(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        gradients = X[:, 0]
        tree = GradientRegressionTree().fit(X, gradients, np.ones(100))
        leaves = tree.apply(X)
        assert leaves.min() >= 0
        assert leaves.max() < tree.num_leaves_

    def test_input_validation(self):
        tree = GradientRegressionTree()
        with pytest.raises(DimensionMismatchError):
            tree.fit(np.zeros(5), np.zeros(5), np.ones(5))
        with pytest.raises(DimensionMismatchError):
            tree.fit(np.zeros((5, 2)), np.zeros(4), np.ones(5))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GradientRegressionTree().predict(np.zeros((2, 2)))

    @pytest.mark.parametrize("backend", ("array", "hist"))
    @pytest.mark.parametrize("width", (2, 6))  # narrower, wider than the fitted 3
    def test_feature_count_mismatch_rejected(self, backend, width):
        # Narrower used to die with a bare IndexError inside the traversal;
        # wider was silently scored on its first columns.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        tree = GradientRegressionTree(backend=backend).fit(X, X[:, 2], np.ones(40))
        message = rf"fitted on 3 features, got X of shape \(6, {width}\)"
        for method in ("predict", "apply", "leaf_values"):
            with pytest.raises(DimensionMismatchError, match=message):
                getattr(tree, method)(np.zeros((6, width)))
        with pytest.raises(DimensionMismatchError):
            tree.predict(np.zeros(width))  # a single row is checked too

    def test_config_validation(self):
        with pytest.raises(ModelConfigError):
            RegressionTreeConfig(max_depth=0).validate()
        with pytest.raises(ModelConfigError):
            RegressionTreeConfig(min_samples_leaf=0).validate()
        with pytest.raises(ModelConfigError):
            RegressionTreeConfig(reg_lambda=-1.0).validate()


class TestGradientBoostedClassifier:
    def test_binary_classification_accuracy(self):
        X, y = _linearly_separable()
        model = GradientBoostedClassifier(num_rounds=15).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_multiclass_classification_accuracy(self):
        X, y = _three_class_blobs()
        model = GradientBoostedClassifier(num_rounds=15).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_probabilities_are_normalised(self):
        X, y = _three_class_blobs()
        model = GradientBoostedClassifier(num_rounds=5).fit(X, y)
        probabilities = model.predict_proba(X)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(len(y)), atol=1e-9)

    def test_training_loss_decreases(self):
        X, y = _three_class_blobs()
        model = GradientBoostedClassifier(num_rounds=10).fit(X, y)
        assert model.train_loss_history_[-1] < model.train_loss_history_[0]

    def test_leaf_embeddings_shapes(self):
        X, y = _three_class_blobs(n=90)
        model = GradientBoostedClassifier(num_rounds=4).fit(X, y)
        values = model.leaf_values(X[:7])
        indices = forest_leaf_indices(model.forest_, X[:7])
        assert values.shape == (7, 4 * 3)
        assert indices.shape == (7, 4 * 3)
        assert indices.dtype == np.int64
        assert model.forest_.num_trees == 12

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GradientBoostedClassifier().predict(np.zeros((2, 3)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ModelConfigError):
            GradientBoostedClassifier(num_rounds=0)
        with pytest.raises(ModelConfigError):
            GradientBoostedClassifier(learning_rate=0.0)

    def test_single_class_rejected(self):
        with pytest.raises(ModelConfigError):
            GradientBoostedClassifier().fit(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_single_row_prediction(self):
        X, y = _linearly_separable()
        model = GradientBoostedClassifier(num_rounds=3).fit(X, y)
        assert model.predict_proba(X[0]).shape == (1, 2)

    @pytest.mark.parametrize("backend", ("node", "array", "hist"))
    @pytest.mark.parametrize("width", (3, 5))  # narrower, wider than the fitted 4
    def test_feature_count_mismatch_rejected(self, backend, width):
        # Narrower used to die with a bare IndexError inside the traversal;
        # wider was silently scored on its first columns.
        X, y = _linearly_separable()
        if backend == "node":  # the pointer-walk oracle, tests/exact_reference.py
            model = ReferenceBoostedClassifier(num_rounds=2).fit(X, y)
        else:
            model = GradientBoostedClassifier(num_rounds=2, backend=backend).fit(X, y)
        wrong = np.zeros((6, width))
        for method in ("predict", "predict_proba", "leaf_values"):
            with pytest.raises(DimensionMismatchError, match="fitted on 4 features"):
                getattr(model, method)(wrong)
        with pytest.raises(DimensionMismatchError):
            model.predict(np.zeros(width))  # a single row is checked too

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_features_rejected_at_fit(self, bad):
        X, y = _linearly_separable()
        X[5, 3] = bad
        X[9, 2] = bad
        model = GradientBoostedClassifier(num_rounds=2)
        with pytest.raises(FeatureError, match="first offending column: 2"):
            model.fit(X, y)
        assert model.trees_ is None  # rejected before anything was fitted
