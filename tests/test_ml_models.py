"""Tests for logistic regression, regression trees and gradient boosting.

A regression tree exists only as a tree of a boosted fit: the tree tests
grow one with the exact grower (:func:`repro.ml.forest.grow_exact`, through
``tests.test_ml_forest.grow_tree``) or read one out of a fitted forest.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    DimensionMismatchError,
    FeatureError,
    ModelConfigError,
    NotFittedError,
    TrainingDivergedError,
)
from repro.ml import GradientBoostedClassifier, LogisticRegression, RegressionTreeConfig
from repro.ml.forest import FeaturePresort, grow_exact
from repro.ml.logistic import GRADIENT_TOLERANCE, SCORING_BLOCK_ROWS
from tests.exact_reference import ReferenceBoostedClassifier, forest_leaf_indices
from tests.test_ml_forest import grow_tree


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
        solve's tolerance (scaled by ``max(1, max|X|)``), and no 400-step
        descent reaches a lower loss."""
        for X, y in (_linearly_separable(), _three_class_blobs()):
            tolerance = GRADIENT_TOLERANCE * max(1.0, np.abs(X).max())
            for l2 in (1e-4, 1e-2):
                model = LogisticRegression(l2=l2).fit(X, y)
                assert np.abs(_gradient(model, X, y)).max() < tolerance
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

    def test_features_scaled_by_1e3_still_converge(self):
        """The stop test scales with the features: an absolute 1e-8 sat
        below what float64 resolves once a feature is ~1e3, and this design
        raised TrainingDivergedError."""
        X = np.random.default_rng(19).normal(size=(60, 2)) * 1e3
        y = np.arange(60) % 2
        model = LogisticRegression().fit(X, y)
        scale = max(1.0, np.abs(X).max())
        assert np.abs(_gradient(model, X, y)).max() < GRADIENT_TOLERANCE * scale

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


@st.composite
def _scoring_batches(draw):
    """A fitted model, a batch across several scoring blocks and a split of
    it into sub-batches (singletons included)."""
    width, classes = draw(st.integers(1, 14)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = LogisticRegression().fit(rng.random((60, width)), np.arange(60) % classes)
    rows = draw(st.integers(1, 3 * SCORING_BLOCK_ROWS))
    X = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-3, 3, (rows, width))
    cuts = draw(st.lists(st.integers(1, rows), max_size=12, unique=True))
    return model, X, [0, *sorted(cuts), rows]


class TestBatchInvariantScoring:
    @given(_scoring_batches())
    @settings(max_examples=40, deadline=None)
    def test_any_split_of_a_batch_scores_the_same_bytes(self, case):
        model, X, bounds = case
        whole = model.predict_proba(X)
        parts = [model.predict_proba(X[start:stop]) for start, stop in zip(bounds, bounds[1:])]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert model.predict_proba(X[:1]).tobytes() == whole[:1].tobytes()
        order = np.random.default_rng(len(X)).permutation(len(X))
        assert model.predict_proba(X[order]).tobytes() == whole[order].tobytes()

    def test_empty_batch(self):
        X, y = _three_class_blobs()
        assert LogisticRegression().fit(X, y).predict_proba(np.zeros((0, 2))).shape == (0, 3)


def tree_depth(tensor) -> int:
    """Depth of a flattened tree by a level sweep over its child slots."""
    frontier, depth = np.array([0]), 0
    while (internal := frontier[tensor.feature[frontier] >= 0]).size:
        frontier = np.concatenate([tensor.left[internal], tensor.right[internal]])
        depth += 1
    return depth


class TestRegressionTree:
    def test_fits_a_simple_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        gradients = np.where(X[:, 0] < 0.5, -1.0, 1.0)
        hessians = np.ones(50)
        tree = grow_tree("array", X, gradients, hessians, RegressionTreeConfig(max_depth=2))
        predictions = tree.predict(X)
        # Leaf weight is -G/(H+λ): negative gradients → positive weights.
        assert predictions[0] > 0 > predictions[-1]

    def test_respects_max_depth(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        gradients = rng.normal(size=200)
        tensor, _ = grow_exact(
            FeaturePresort.from_matrix(X), gradients, np.ones(200), RegressionTreeConfig(max_depth=2)
        )
        assert tree_depth(tensor) == 2

    def test_pure_leaf_when_no_split_improves(self):
        X = np.ones((10, 2))
        gradients = np.full(10, -1.0)
        tree = grow_tree("array", X, gradients, np.ones(10))
        assert tree.num_leaves == 1

    def test_apply_returns_valid_leaf_ids(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        gradients = X[:, 0]
        tree = grow_tree("array", X, gradients, np.ones(100))
        leaves = tree.apply(X)
        assert leaves.min() >= 0
        assert leaves.max() < tree.num_leaves

    def test_input_validation(self):
        # A tree is grown only by a fit, which checks its inputs before any
        # tree: a 1-D design or a label vector of another length is rejected.
        model = GradientBoostedClassifier(num_rounds=1)
        with pytest.raises(DimensionMismatchError):
            model.fit(np.zeros(5), np.zeros(5))
        with pytest.raises(DimensionMismatchError):
            model.fit(np.zeros((5, 2)), np.zeros(4))
        assert model.forest_ is None

    def test_predict_before_fit_raises(self):
        for method in ("predict", "leaf_values"):
            with pytest.raises(NotFittedError):
                getattr(GradientBoostedClassifier(), method)(np.zeros((2, 2)))

    @pytest.mark.parametrize("backend", ("array", "hist"))
    @pytest.mark.parametrize("width", (2, 6))  # narrower, wider than the fitted 3
    def test_feature_count_mismatch_rejected(self, backend, width, monkeypatch):
        # Narrower used to die with a bare IndexError inside the traversal;
        # wider was silently scored on its first columns.  Every tree is
        # read through its forest, which checks the width on either route.
        if backend == "hist":
            monkeypatch.setattr("repro.ml.gbdt.HIST_AUTO_MIN_ROWS", 0)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        model = GradientBoostedClassifier(num_rounds=1).fit(X, (X[:, 2] > 0).astype(int))
        assert (model.num_hist_passes_ > 0) == (backend == "hist")
        message = rf"fitted on 3 features, got X of shape \(6, {width}\)"
        for method in ("predict", "predict_proba", "leaf_values"):
            with pytest.raises(DimensionMismatchError, match=message):
                getattr(model, method)(np.zeros((6, width)))
        with pytest.raises(DimensionMismatchError):
            model.leaf_values(np.zeros(width))  # a single row is checked too

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
    def test_feature_count_mismatch_rejected(self, backend, width, monkeypatch):
        # Narrower used to die with a bare IndexError inside the traversal;
        # wider was silently scored on its first columns.
        X, y = _linearly_separable()
        if backend == "node":  # the pointer-walk oracle, tests/exact_reference.py
            model = ReferenceBoostedClassifier(num_rounds=2).fit(X, y)
        else:
            if backend == "hist":
                monkeypatch.setattr("repro.ml.gbdt.HIST_AUTO_MIN_ROWS", 0)
            model = GradientBoostedClassifier(num_rounds=2).fit(X, y)
            assert (model.num_hist_passes_ > 0) == (backend == "hist")
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
        assert model.forest_ is None  # rejected before anything was fitted

