"""Tests for the CommCNN oracle's layers, the loss, Adam and the classifier.

The layer-by-layer ``forward`` / ``backward`` and the per-name Adam live in
the oracle, ``tests/nn_reference.py``, and are checked here against
numerical gradients and known values, because the product's network is
held to that oracle bit for bit (``tests/test_nn_engine.py``).  The
classifier tests run on both the product (``"fused"``) and the oracle
(``"loop"``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commcnn import build_commcnn_classifier
from repro.core.config import CommCNNConfig
from repro.exceptions import (
    DimensionMismatchError,
    ModelConfigError,
    NotFittedError,
    TrainingDivergedError,
)
from repro.ml.nn import SoftmaxCrossEntropy
from tests.nn_reference import (
    Adam,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalMaxPool2D,
    LoopClassifier,
    MaxPool2D,
    ParallelConcat,
    ReLU,
    Sequential,
    figure8,
)
from tests.test_nn_engine import _commcnn


def _numerical_gradient(function, array: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function w.r.t. ``array``."""
    gradient = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function()
        flat[index] = original - epsilon
        minus = function()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return gradient


class TestConv2D:
    def test_output_shape(self, rng):
        layer = Conv2D(1, 4, (3, 3))
        out = layer.forward(rng.normal(size=(2, 1, 8, 6)))
        assert out.shape == (2, 4, 6, 4)

    def test_known_convolution_value(self):
        layer = Conv2D(1, 1, (2, 2))
        layer.weight[...] = np.ones((1, 1, 2, 2))
        layer.bias[...] = 0.0
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = layer.forward(x)
        # Top-left window is [[0,1],[3,4]] -> sum 8.
        assert out[0, 0, 0, 0] == pytest.approx(8.0)

    def test_rejects_wrong_channel_count(self, rng):
        layer = Conv2D(2, 3, (3, 3))
        with pytest.raises(DimensionMismatchError):
            layer.forward(rng.normal(size=(1, 1, 5, 5)))

    def test_rejects_too_small_input(self, rng):
        layer = Conv2D(1, 1, (3, 3))
        with pytest.raises(DimensionMismatchError):
            layer.forward(rng.normal(size=(1, 1, 2, 5)))

    def test_weight_gradient_matches_numerical(self, rng):
        layer = Conv2D(1, 2, (2, 2), seed=1)
        x = rng.normal(size=(3, 1, 4, 4))

        def loss() -> float:
            return float(layer.forward(x, training=True).sum())

        loss()
        layer.backward(np.ones((3, 2, 3, 3)))
        numerical = _numerical_gradient(loss, layer.weight)
        np.testing.assert_allclose(layer.grad_weight, numerical, atol=1e-4)

    def test_input_gradient_matches_numerical(self, rng):
        layer = Conv2D(1, 1, (2, 2), seed=2)
        x = rng.normal(size=(1, 1, 4, 3))

        def loss() -> float:
            return float(layer.forward(x, training=True).sum())

        loss()
        dx = layer.backward(np.ones((1, 1, 3, 2)))
        numerical = _numerical_gradient(loss, x)
        np.testing.assert_allclose(dx, numerical, atol=1e-4)

    def test_invalid_configuration(self):
        with pytest.raises(ModelConfigError):
            Conv2D(0, 1, (3, 3))
        with pytest.raises(ModelConfigError):
            Conv2D(1, 1, (0, 3))


class TestPoolingAndActivation:
    def test_relu_forward_and_backward(self):
        layer = ReLU()
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out, [[0.0, 2.0], [3.0, 0.0]])
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_maxpool_forward(self):
        layer = MaxPool2D((2, 2))
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_backward_routes_to_argmax(self):
        layer = MaxPool2D((2, 2))
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer.forward(x, training=True)
        dx = layer.backward(np.ones((1, 1, 2, 2)))
        assert dx.sum() == pytest.approx(4.0)
        assert dx[0, 0, 1, 1] == 1.0  # position of value 5

    def test_maxpool_clamps_small_inputs(self, rng):
        layer = MaxPool2D((2, 2))
        out = layer.forward(rng.normal(size=(1, 3, 1, 5)))
        assert out.shape == (1, 3, 1, 2)

    def test_maxpool_rejects_bad_config(self):
        with pytest.raises(ModelConfigError):
            MaxPool2D((0, 2))

    def test_global_maxpool_forward_backward(self):
        layer = GlobalMaxPool2D()
        x = np.arange(12, dtype=float).reshape(1, 2, 2, 3)
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out, [[5.0, 11.0]])
        dx = layer.backward(np.array([[1.0, 2.0]]))
        assert dx[0, 0, 1, 2] == 1.0
        assert dx[0, 1, 1, 2] == 2.0
        assert dx.sum() == pytest.approx(3.0)

    def test_flatten_round_trip(self, rng):
        layer = Flatten()
        x = rng.normal(size=(3, 2, 4, 5))
        out = layer.forward(x, training=True)
        assert out.shape == (3, 40)
        assert layer.backward(out).shape == x.shape

    def test_dropout_inference_is_identity(self, rng):
        layer = Dropout(0.5)
        x = rng.normal(size=(4, 10))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_dropout_training_zeroes_some_units(self, rng):
        layer = Dropout(0.5, seed=0)
        x = np.ones((10, 100))
        out = layer.forward(x, training=True)
        assert (out == 0).sum() > 0
        # Inverted dropout keeps the expectation roughly unchanged.
        assert out.mean() == pytest.approx(1.0, abs=0.15)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ModelConfigError):
            Dropout(1.0)


class TestDense:
    def test_forward_shape_and_validation(self, rng):
        layer = Dense(4, 3)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)
        with pytest.raises(DimensionMismatchError):
            layer.forward(rng.normal(size=(5, 2)))

    def test_gradients_match_numerical(self, rng):
        layer = Dense(3, 2, seed=0)
        x = rng.normal(size=(4, 3))

        def loss() -> float:
            return float(layer.forward(x, training=True).sum())

        loss()
        dx = layer.backward(np.ones((4, 2)))
        np.testing.assert_allclose(
            layer.grad_weight, _numerical_gradient(loss, layer.weight), atol=1e-5
        )
        np.testing.assert_allclose(dx, _numerical_gradient(loss, x), atol=1e-5)

    def test_parameters_exposed(self):
        layer = Dense(2, 2)
        names = [name for name, _, _ in layer.parameters()]
        assert names == ["weight", "bias"]


class TestLossAndOptimizers:
    def test_cross_entropy_perfect_prediction_is_small(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-3

    def test_cross_entropy_uniform_prediction(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((4, 3)), np.array([0, 1, 2, 0]))
        assert value == pytest.approx(np.log(3.0))

    def test_cross_entropy_gradient_matches_numerical(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])

        def value() -> float:
            return loss.forward(logits, labels)

        value()
        analytic = loss.backward()
        numerical = _numerical_gradient(value, logits)
        np.testing.assert_allclose(analytic, numerical, atol=1e-5)

    def test_cross_entropy_validation(self):
        loss = SoftmaxCrossEntropy()
        with pytest.raises(DimensionMismatchError):
            loss.forward(np.zeros((2, 3)), np.array([0, 1, 2]))
        with pytest.raises(DimensionMismatchError):
            loss.forward(np.zeros(3), np.array([0]))

    def test_optimizer_state_keyed_by_name_not_id(self):
        """State must follow the parameter *name*, not the array's id().

        A recycled ``id()`` (array garbage-collected, address reused) used to
        splice stale moments onto an unrelated parameter; a stable name key
        also keeps state attached when a parameter array is swapped out.
        """
        optimizer = Adam(learning_rate=0.1)
        param = np.array([0.0])
        optimizer.step([("w", param, np.array([1.0]))])
        assert set(optimizer._first_moment) == {"w"}
        # A replacement array under the same name continues the moments: a
        # fresh Adam's first step moves by the full learning rate whatever
        # the gradient, this one does not.
        replacement = np.array([0.0])
        optimizer.step([("w", replacement, np.array([-1.0]))])
        assert optimizer._step_count == {"w": 2}
        assert abs(replacement[0]) < 0.01

    def test_adam_per_name_timesteps(self):
        optimizer = Adam(learning_rate=0.1)
        first = np.array([1.0])
        second = np.array([1.0])
        optimizer.step([("a", first, np.array([0.5]))])
        optimizer.step([("a", first, np.array([0.5])), ("b", second, np.array([0.5]))])
        assert optimizer._step_count == {"a": 2, "b": 1}

    def test_adam_reduces_quadratic_loss(self):
        param = np.array([5.0])
        optimizer = Adam(learning_rate=0.1)
        for _ in range(200):
            grad = 2.0 * param
            optimizer.step([("w", param, grad)])
        assert abs(param[0]) < 0.5

    def test_optimizer_validation(self):
        # Adam's one settable value is the classifier's learning rate; its
        # decay rates and epsilon are module constants, pinned by
        # test_nn_engine.py::test_adam_constants_are_kingma_ba_defaults.
        with pytest.raises(ModelConfigError):
            build_commcnn_classifier(4, 3, 2, config=CommCNNConfig(learning_rate=0.0))


def _figure8_problem(rng, n=40, k=6, num_columns=5):
    """Rows of a ``(n, 1, k, num_columns)`` CommCNN input, labelled by
    whether their first column sums above zero."""
    X = rng.normal(size=(n, 1, k, num_columns))
    return X, (X[:, 0, :, 0].sum(axis=1) > 0).astype(int)


class TestModelContainers:
    def test_sequential_collects_parameters(self):
        model = Sequential([Dense(3, 4), ReLU(), Dense(4, 2)])
        assert len(model.parameters()) == 4

    def test_parallel_concat_output_width(self, rng):
        branches = ParallelConcat(
            [
                Sequential([Conv2D(1, 2, (2, 2)), Flatten()]),
                Sequential([Conv2D(1, 3, (1, 4)), GlobalMaxPool2D()]),
            ]
        )
        out = branches.forward(rng.normal(size=(2, 1, 4, 4)))
        assert out.shape == (2, 2 * 3 * 3 + 3)

    def test_parallel_concat_requires_2d_branches(self, rng):
        branches = ParallelConcat([Sequential([Conv2D(1, 2, (2, 2))])])
        with pytest.raises(ModelConfigError):
            branches.forward(rng.normal(size=(1, 1, 4, 4)))

    def test_parallel_concat_requires_branches(self):
        with pytest.raises(ModelConfigError):
            ParallelConcat([])

    def test_classifier_learns_simple_task(self, rng):
        X = rng.normal(size=(200, 1, 1, 2))
        y = (X[:, 0, 0, 0] + X[:, 0, 0, 1] > 0).astype(int)
        config = CommCNNConfig(epochs=30, num_filters=4, dense_units=16, dropout=0.0)
        clf = build_commcnn_classifier(1, 2, 2, config=config)
        clf.fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.9
        assert clf.loss_history_[-1] < clf.loss_history_[0]

    def test_classifier_validation(self):
        for k, num_columns, num_classes, config in (
            (4, 3, 1, CommCNNConfig()),
            (0, 3, 2, CommCNNConfig()),
            (4, 0, 2, CommCNNConfig()),
            (4, 3, 2, CommCNNConfig(num_filters=0)),
            (4, 3, 2, CommCNNConfig(dense_units=0)),
            (4, 3, 2, CommCNNConfig(dropout=1.0)),
            (4, 3, 2, CommCNNConfig(dropout=-0.1)),
            (4, 3, 2, CommCNNConfig(dropout=float("nan"))),
            (4, 3, 2, CommCNNConfig(epochs=0)),
            (4, 3, 2, CommCNNConfig(batch_size=0)),
            (4, 3, 2, CommCNNConfig(learning_rate=0.0)),
        ):
            with pytest.raises(ModelConfigError):
                build_commcnn_classifier(k, num_columns, num_classes, config=config)
        clf = build_commcnn_classifier(4, 3, 2)
        with pytest.raises(DimensionMismatchError):
            clf.fit(np.zeros((3, 1, 4, 3)), np.zeros(4, dtype=int))

    def test_classifier_detects_wrong_output_width(self, rng):
        # The product's head is num_classes wide by construction; the oracle
        # checks the width of any model it is handed.
        model = Sequential([Flatten(), Dense(2, 5)])
        clf = LoopClassifier(model, 3, epochs=1, batch_size=4, learning_rate=1e-3, seed=0)
        with pytest.raises(ModelConfigError):
            clf.fit(rng.normal(size=(8, 1, 1, 2)), np.zeros(8, dtype=int))

    def test_num_parameters(self):
        # The packed vectors hold exactly the oracle's parameters.
        config = CommCNNConfig()
        clf = build_commcnn_classifier(20, 23, 3, config=config)
        oracle = figure8(20, 23, 3, config)
        count = sum(param.size for _, param, _ in oracle.parameters())
        assert clf.theta.size == clf.grad.size == count

    @pytest.mark.parametrize("backend", ["loop", "fused"])
    def test_fit_is_deterministic(self, rng, backend):
        """Two fits with the same seed produce identical weights and losses."""
        X, y = _figure8_problem(rng, n=60)
        config = CommCNNConfig(epochs=4, batch_size=16, dropout=0.3, seed=3)
        runs = [_commcnn(6, 5, 2, config, backend).fit(X, y) for _ in range(2)]
        assert runs[0].loss_history_ == runs[1].loss_history_
        assert np.array_equal(runs[0].predict_proba(X), runs[1].predict_proba(X))

    @pytest.mark.parametrize("backend", ["loop", "fused"])
    def test_non_finite_loss_raises_naming_epoch(self, backend):
        X = np.full((8, 1, 4, 3), np.nan)
        y = np.zeros(8, dtype=np.int64)
        clf = _commcnn(4, 3, 2, CommCNNConfig(epochs=3), backend)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            clf.fit(X, y)
        # A diverged fit must leave the classifier reporting not-fitted
        # instead of serving predictions from a half-trained model.
        assert clf.loss_history_ is None
        with pytest.raises(NotFittedError):
            clf.predict_proba(np.zeros((2, 1, 4, 3)))

    @pytest.mark.parametrize("backend", ["loop", "fused"])
    def test_empty_fit_rejected(self, backend):
        # Used to "succeed" with loss_history_ == [0.0, 0.0] and serve an
        # untrained model, where the GBDT and the logistic regression raise.
        clf = _commcnn(4, 3, 3, CommCNNConfig(epochs=2), backend)
        with pytest.raises(DimensionMismatchError, match="empty dataset"):
            clf.fit(np.zeros((0, 1, 4, 3)), np.zeros(0))
        assert clf.loss_history_ is None

    def test_fit_clears_training_caches(self, rng):
        """The oracle's layer caches must not pin the last batch's tensors
        after fit."""
        model = Sequential(
            [
                Conv2D(1, 2, (2, 2), seed=0),
                ReLU(),
                MaxPool2D((2, 2)),
                GlobalMaxPool2D(),
                Flatten(),
                Dropout(0.4, seed=1),
                Dense(2, 2, seed=2),
            ]
        )
        clf = LoopClassifier(model, 2, epochs=1, batch_size=32, learning_rate=1e-3, seed=0)
        clf.fit(rng.normal(size=(12, 1, 6, 5)), rng.integers(0, 2, size=12))
        conv, relu, pool, glob, flat, drop, dense = model.layers
        assert conv._cache is None
        assert relu._mask is None
        assert pool._cache is None
        assert glob._cache is None
        assert flat._input_shape is None
        assert drop._mask is None
        assert dense._input is None
