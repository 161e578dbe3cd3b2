"""Tests for the NumPy neural-network stack (layers, losses, optimisers, models).

The product layers are specifications; their ``forward`` / ``backward``
and the per-name Adam live in the oracle, ``tests/nn_reference.py``, and
are checked here against numerical gradients and known values, because the
compiled engine is held to that oracle bit for bit
(``tests/test_nn_engine.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    DimensionMismatchError,
    ModelConfigError,
    TrainingDivergedError,
)
from repro.ml.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalMaxPool2D,
    MaxPool2D,
    NeuralNetworkClassifier,
    ParallelConcat,
    ReLU,
    Sequential,
    SoftmaxCrossEntropy,
)
from tests.nn_reference import Adam, LoopClassifier, reference_layer


def _classifier(backend, model, **kwargs):
    """The classifier on ``backend``: ``"fused"`` is the product,
    ``"loop"`` the layer-by-layer oracle."""
    classifier_type = LoopClassifier if backend == "loop" else NeuralNetworkClassifier
    return classifier_type(model, **kwargs)


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
        layer = reference_layer(Conv2D(1, 4, (3, 3)))
        out = layer.forward(rng.normal(size=(2, 1, 8, 6)))
        assert out.shape == (2, 4, 6, 4)

    def test_known_convolution_value(self):
        spec = Conv2D(1, 1, (2, 2))
        spec.weight[...] = np.ones((1, 1, 2, 2))
        spec.bias[...] = 0.0
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = reference_layer(spec).forward(x)
        # Top-left window is [[0,1],[3,4]] -> sum 8.
        assert out[0, 0, 0, 0] == pytest.approx(8.0)

    def test_rejects_wrong_channel_count(self, rng):
        layer = reference_layer(Conv2D(2, 3, (3, 3)))
        with pytest.raises(DimensionMismatchError):
            layer.forward(rng.normal(size=(1, 1, 5, 5)))

    def test_rejects_too_small_input(self, rng):
        layer = reference_layer(Conv2D(1, 1, (3, 3)))
        with pytest.raises(DimensionMismatchError):
            layer.forward(rng.normal(size=(1, 1, 2, 5)))

    def test_weight_gradient_matches_numerical(self, rng):
        spec = Conv2D(1, 2, (2, 2), seed=1)
        layer = reference_layer(spec)
        x = rng.normal(size=(3, 1, 4, 4))

        def loss() -> float:
            return float(layer.forward(x, training=True).sum())

        loss()
        layer.backward(np.ones((3, 2, 3, 3)))
        numerical = _numerical_gradient(loss, spec.weight)
        np.testing.assert_allclose(spec.grad_weight, numerical, atol=1e-4)

    def test_input_gradient_matches_numerical(self, rng):
        layer = reference_layer(Conv2D(1, 1, (2, 2), seed=2))
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
        layer = reference_layer(ReLU())
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out, [[0.0, 2.0], [3.0, 0.0]])
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_maxpool_forward(self):
        layer = reference_layer(MaxPool2D((2, 2)))
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool_backward_routes_to_argmax(self):
        layer = reference_layer(MaxPool2D((2, 2)))
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer.forward(x, training=True)
        dx = layer.backward(np.ones((1, 1, 2, 2)))
        assert dx.sum() == pytest.approx(4.0)
        assert dx[0, 0, 1, 1] == 1.0  # position of value 5

    def test_maxpool_clamps_small_inputs(self, rng):
        layer = reference_layer(MaxPool2D((2, 2)))
        out = layer.forward(rng.normal(size=(1, 3, 1, 5)))
        assert out.shape == (1, 3, 1, 2)

    def test_maxpool_rejects_bad_config(self):
        with pytest.raises(ModelConfigError):
            MaxPool2D((0, 2))

    def test_global_maxpool_forward_backward(self):
        layer = reference_layer(GlobalMaxPool2D())
        x = np.arange(12, dtype=float).reshape(1, 2, 2, 3)
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out, [[5.0, 11.0]])
        dx = layer.backward(np.array([[1.0, 2.0]]))
        assert dx[0, 0, 1, 2] == 1.0
        assert dx[0, 1, 1, 2] == 2.0
        assert dx.sum() == pytest.approx(3.0)

    def test_flatten_round_trip(self, rng):
        layer = reference_layer(Flatten())
        x = rng.normal(size=(3, 2, 4, 5))
        out = layer.forward(x, training=True)
        assert out.shape == (3, 40)
        assert layer.backward(out).shape == x.shape

    def test_dropout_inference_is_identity(self, rng):
        layer = reference_layer(Dropout(0.5))
        x = rng.normal(size=(4, 10))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_dropout_training_zeroes_some_units(self, rng):
        layer = reference_layer(Dropout(0.5, seed=0))
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
        layer = reference_layer(Dense(4, 3))
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)
        with pytest.raises(DimensionMismatchError):
            layer.forward(rng.normal(size=(5, 2)))

    def test_gradients_match_numerical(self, rng):
        spec = Dense(3, 2, seed=0)
        layer = reference_layer(spec)
        x = rng.normal(size=(4, 3))

        def loss() -> float:
            return float(layer.forward(x, training=True).sum())

        loss()
        dx = layer.backward(np.ones((4, 2)))
        np.testing.assert_allclose(
            spec.grad_weight, _numerical_gradient(loss, spec.weight), atol=1e-5
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
        # decay rates and epsilon are engine constants, pinned by
        # test_nn_engine.py::test_adam_constants_are_kingma_ba_defaults.
        with pytest.raises(ModelConfigError):
            NeuralNetworkClassifier(Sequential([Dense(2, 2)]), 2, learning_rate=0.0)


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
        out = reference_layer(branches).forward(rng.normal(size=(2, 1, 4, 4)))
        assert out.shape == (2, 2 * 3 * 3 + 3)

    def test_parallel_concat_requires_2d_branches(self, rng):
        branches = ParallelConcat([Sequential([Conv2D(1, 2, (2, 2))])])
        with pytest.raises(ModelConfigError):
            reference_layer(branches).forward(rng.normal(size=(1, 1, 4, 4)))
        # The engine rejects the model when it compiles it.
        model = Sequential([branches, Dense(18, 2)])
        with pytest.raises(ModelConfigError):
            NeuralNetworkClassifier(model, 2, epochs=1).fit(
                rng.normal(size=(4, 1, 4, 4)), np.array([0, 1, 0, 1])
            )

    def test_parallel_concat_requires_branches(self):
        with pytest.raises(ModelConfigError):
            ParallelConcat([])

    def test_classifier_learns_simple_task(self, rng):
        X = rng.normal(size=(200, 6))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = Sequential([Dense(6, 16, seed=0), ReLU(), Dense(16, 2, seed=1)])
        clf = NeuralNetworkClassifier(model, num_classes=2, epochs=30, batch_size=32)
        clf.fit(X, y)
        assert (clf.predict(X) == y).mean() > 0.9
        assert clf.loss_history_[-1] < clf.loss_history_[0]

    def test_classifier_validation(self):
        model = Sequential([Dense(2, 2)])
        with pytest.raises(ModelConfigError):
            NeuralNetworkClassifier(model, num_classes=1)
        with pytest.raises(ModelConfigError):
            NeuralNetworkClassifier(model, num_classes=2, learning_rate=0.0)
        clf = NeuralNetworkClassifier(model, num_classes=2)
        with pytest.raises(DimensionMismatchError):
            clf.fit(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_classifier_detects_wrong_output_width(self, rng):
        model = Sequential([Dense(2, 5)])
        clf = NeuralNetworkClassifier(model, num_classes=3, epochs=1)
        with pytest.raises(ModelConfigError):
            clf.fit(rng.normal(size=(8, 2)), np.zeros(8, dtype=int))

    def test_num_parameters(self):
        model = Sequential([Dense(3, 4), Dense(4, 2)])
        clf = NeuralNetworkClassifier(model, num_classes=2)
        assert clf.num_parameters() == (3 * 4 + 4) + (4 * 2 + 2)

    @pytest.mark.parametrize("backend", ["loop", "fused"])
    def test_fit_is_deterministic(self, rng, backend):
        """Two fits with the same seed produce identical weights and losses."""
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] > 0).astype(int)
        runs = []
        for _ in range(2):
            model = Sequential(
                [Dense(5, 8, seed=0), ReLU(), Dropout(0.3, seed=7), Dense(8, 2, seed=1)]
            )
            clf = _classifier(
                backend, model, num_classes=2, epochs=4, batch_size=16, seed=3
            )
            clf.fit(X, y)
            runs.append(clf)
        assert runs[0].loss_history_ == runs[1].loss_history_
        for (_, first, _), (_, second, _) in zip(
            runs[0].model.parameters(), runs[1].model.parameters()
        ):
            assert np.array_equal(first, second)

    @pytest.mark.parametrize("backend", ["loop", "fused"])
    def test_non_finite_loss_raises_naming_epoch(self, backend):
        X = np.full((8, 3), np.nan)
        y = np.zeros(8, dtype=np.int64)
        model = Sequential([Dense(3, 4, seed=0), ReLU(), Dense(4, 2, seed=1)])
        clf = _classifier(backend, model, num_classes=2, epochs=3)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            clf.fit(X, y)
        # A diverged fit must leave the classifier reporting not-fitted
        # instead of serving predictions from a half-trained model.
        assert clf.loss_history_ is None
        from repro.exceptions import NotFittedError

        with pytest.raises(NotFittedError):
            clf.predict_proba(np.zeros((2, 3)))

    @pytest.mark.parametrize("backend", ["loop", "fused"])
    def test_empty_fit_rejected(self, backend):
        # Used to "succeed" with loss_history_ == [0.0, 0.0] and serve an
        # untrained model, where the GBDT and the logistic regression raise.
        model = Sequential(
            [Conv2D(1, 2, (2, 2), seed=0), Flatten(), Dense(2 * 3 * 2, 3, seed=1)]
        )
        clf = _classifier(backend, model, num_classes=3, epochs=2)
        with pytest.raises(DimensionMismatchError, match="empty dataset"):
            clf.fit(np.zeros((0, 1, 4, 3)), np.zeros(0))
        assert clf.loss_history_ is None

    def test_fit_clears_training_caches(self, rng):
        """The oracle's layer caches must not pin the last batch's tensors
        after fit; the product's layers hold no tensors but their weights."""
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
        clf = LoopClassifier(model, num_classes=2, epochs=1)
        clf.fit(rng.normal(size=(12, 1, 6, 5)), rng.integers(0, 2, size=12))
        conv, relu, pool, glob, flat, drop, dense = clf.network_.layers
        assert conv._cache is None
        assert relu._mask is None
        assert pool._cache is None
        assert glob._cache is None
        assert flat._input_shape is None
        assert drop._mask is None
        assert dense._input is None
        for layer in model.layers:
            assert not any(
                name.startswith(("_cache", "_mask", "_input")) for name in vars(layer)
            )
