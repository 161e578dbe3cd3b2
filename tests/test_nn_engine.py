"""Parity suite: the compiled NN engine must be bit-identical to its oracle.

Every test fits (or runs) the same model twice — once layer by layer on the
oracle of ``tests/nn_reference.py`` (``"loop"``), once on the compiled tape
of the product classifier (``"fused"``) — and asserts exact equality
(``np.array_equal``, no tolerances) of logits, fitted weights, gradients and
loss histories.  Randomized CommCNN configurations cover all three branch
toggles, ragged last batches, dropout on/off and a refit.
``TestBlockedInference`` holds the block contract on each: a row's
probabilities do not depend on the rows sharing its call.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commcnn import build_commcnn_classifier, build_commcnn_model
from repro.core.config import CommCNNConfig
from repro.exceptions import DimensionMismatchError, ModelConfigError
from repro.ml.nn import (
    CompiledNetwork,
    Conv2D,
    Dense,
    EngineCompileError,
    Flatten,
    Layer,
    NeuralNetworkClassifier,
    ReLU,
    Sequential,
)
from repro.ml.nn.engine import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
from tests.nn_reference import LoopClassifier, reference_layer


def _commcnn(
    k: int,
    num_columns: int,
    num_classes: int,
    config: CommCNNConfig,
    backend: str,
    **branch_toggles: bool,
) -> NeuralNetworkClassifier:
    """``build_commcnn_classifier``'s classifier on the compiled tape
    (``"fused"``) or on the layer-by-layer oracle (``"loop"``)."""
    classifier_type = LoopClassifier if backend == "loop" else NeuralNetworkClassifier
    return classifier_type(
        build_commcnn_model(k, num_columns, num_classes, config=config, **branch_toggles),
        num_classes=num_classes,
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        seed=config.seed,
    )


def _fit_pair(
    k: int,
    num_columns: int,
    num_classes: int,
    X: np.ndarray,
    y: np.ndarray,
    config: CommCNNConfig,
    **branch_toggles: bool,
) -> tuple[NeuralNetworkClassifier, NeuralNetworkClassifier]:
    """Fit two identically-configured CommCNNs, the oracle and the tape."""
    fitted = []
    for backend in ("loop", "fused"):
        clf = _commcnn(k, num_columns, num_classes, config, backend, **branch_toggles)
        clf.fit(X, y)
        assert (clf._engine is not None) == (backend == "fused")
        fitted.append(clf)
    return fitted[0], fitted[1]


def _assert_identical(loop_clf, fused_clf, X) -> None:
    assert loop_clf.loss_history_ == fused_clf.loss_history_
    loop_params = loop_clf.model.parameters()
    fused_params = fused_clf.model.parameters()
    assert [name for name, _, _ in loop_params] == [
        name for name, _, _ in fused_params
    ]
    for (name, param_l, grad_l), (_, param_f, grad_f) in zip(loop_params, fused_params):
        assert np.array_equal(param_l, param_f), f"weights diverge at {name}"
        assert np.array_equal(grad_l, grad_f), f"gradients diverge at {name}"
    assert np.array_equal(loop_clf.predict_proba(X), fused_clf.predict_proba(X))
    assert np.array_equal(loop_clf.predict(X), fused_clf.predict(X))


def _random_problem(rng, n, k, num_columns, num_classes):
    X = rng.normal(size=(n, 1, k, num_columns))
    # Zero-pad some trailing rows like real community tensors.
    X[rng.random(n) < 0.3, :, k // 2 :, :] = 0.0
    y = rng.integers(0, num_classes, size=n)
    return X, y


class TestCommCNNParity:
    def test_full_network_ragged_batches_dropout(self):
        rng = np.random.default_rng(7)
        X, y = _random_problem(rng, 83, 12, 9, 3)  # 83 % 32 != 0: ragged batch
        config = CommCNNConfig(epochs=3, dropout=0.2, seed=3)
        loop_clf, fused_clf = _fit_pair(12, 9, 3, X, y, config)
        _assert_identical(loop_clf, fused_clf, X)

    def test_no_dropout(self):
        rng = np.random.default_rng(11)
        X, y = _random_problem(rng, 64, 10, 8, 3)
        config = CommCNNConfig(epochs=3, dropout=0.0, seed=1)
        loop_clf, fused_clf = _fit_pair(10, 8, 3, X, y, config)
        _assert_identical(loop_clf, fused_clf, X)

    @pytest.mark.parametrize(
        "toggles",
        [
            {"include_wide_branch": False, "include_long_branch": False},
            {"include_square_branch": False, "include_long_branch": False},
            {"include_square_branch": False, "include_wide_branch": False},
        ],
        ids=["square-only", "wide-only", "long-only"],
    )
    def test_single_branch_ablations(self, toggles):
        rng = np.random.default_rng(13)
        X, y = _random_problem(rng, 45, 8, 7, 2)
        config = CommCNNConfig(epochs=2, dropout=0.1, seed=5)
        loop_clf, fused_clf = _fit_pair(8, 7, 2, X, y, config, **toggles)
        _assert_identical(loop_clf, fused_clf, X)

    def test_predict_on_unseen_larger_batch(self):
        """A batch larger than ``batch_size`` is scored block by block."""
        rng = np.random.default_rng(29)
        X, y = _random_problem(rng, 40, 10, 7, 3)
        config = CommCNNConfig(epochs=2, dropout=0.1, seed=8)
        loop_clf, fused_clf = _fit_pair(10, 7, 3, X, y, config)
        X_big, _ = _random_problem(rng, 300, 10, 7, 3)
        assert np.array_equal(
            loop_clf.predict_proba(X_big), fused_clf.predict_proba(X_big)
        )
        # The 300 rows ran through the one workspace: nothing grew.
        engine = fused_clf._engine
        assert engine.capacity == config.batch_size
        for slot in engine.slots:
            assert slot.array.shape[0] <= config.batch_size

    def test_refit_same_classifier(self):
        """A second fit continues from the first fit's weights with fresh
        Adam moments — it equals a new classifier fitted on a copy of the
        once-fitted model — and stays bit-identical to the loop."""
        rng = np.random.default_rng(31)
        X1, y1 = _random_problem(rng, 40, 8, 6, 3)
        X2, y2 = _random_problem(rng, 36, 8, 6, 3)
        config = CommCNNConfig(epochs=2, dropout=0.0, seed=9)
        fitted = []
        for backend in ("loop", "fused"):
            clf = _commcnn(8, 6, 3, config, backend)
            clf.fit(X1, y1)
            restarted = _commcnn(8, 6, 3, config, backend)
            restarted.model = copy.deepcopy(clf.model)
            clf.fit(X2, y2)
            restarted.fit(X2, y2)
            _assert_identical(clf, restarted, X2)
            fitted.append(clf)
        _assert_identical(fitted[0], fitted[1], X2)


@pytest.fixture(scope="module")
def blocked_problem():
    """One fitted classifier per backend and 100 rows to score (4 blocks)."""
    rng = np.random.default_rng(41)
    X, y = _random_problem(rng, 100, 10, 7, 3)
    config = CommCNNConfig(epochs=1, dropout=0.1, seed=12)
    loop_clf, fused_clf = _fit_pair(10, 7, 3, X, y, config)
    return {"loop": loop_clf, "fused": fused_clf}, X


class TestBlockedInference:
    """``predict_proba`` scores fixed-shape blocks: a row's result does not
    depend on the rows that share its call (the contract that lets a write
    re-score only the communities it dirtied)."""

    @pytest.mark.parametrize("backend", ["loop", "fused"])
    @settings(max_examples=40, deadline=None)
    @given(indices=st.lists(st.integers(0, 99), unique=True, max_size=100))
    def test_subset_rows_equal_full_rows(self, blocked_problem, backend, indices):
        classifiers, X = blocked_problem
        clf = classifiers[backend]
        idx = np.asarray(indices, dtype=np.intp)
        assert np.array_equal(clf.predict_proba(X[idx]), clf.predict_proba(X)[idx])

    @pytest.mark.parametrize("backend", ["loop", "fused"])
    def test_empty_batch(self, blocked_problem, backend):
        classifiers, X = blocked_problem
        proba = classifiers[backend].predict_proba(X[:0])
        assert proba.shape == (0, 3)


class TestBackendResolution:
    def test_commcnn_trains_on_the_fused_engine(self):
        rng = np.random.default_rng(37)
        X, y = _random_problem(rng, 33, 8, 6, 2)
        clf = build_commcnn_classifier(8, 6, 2, config=CommCNNConfig(epochs=1))
        clf.fit(X, y)
        assert type(clf) is NeuralNetworkClassifier and clf._engine is not None

    def test_fused_raises_on_unsupported_layer(self, rng):
        class Scale(Layer):
            """A layer type the engine has no op for."""

        model = Sequential([Dense(4, 8, seed=0), Scale()])
        clf = NeuralNetworkClassifier(model, num_classes=2, epochs=1)
        with pytest.raises(EngineCompileError):
            clf.fit(rng.normal(size=(8, 4)), np.zeros(8, dtype=np.int64))

    def test_invalid_backend_rejected(self):
        # There is no selector to get wrong: the layer-by-layer oracle is
        # tests/nn_reference.py, and a stale ``backend=`` caller fails.
        model = Sequential([Dense(2, 2)])
        with pytest.raises(TypeError):
            NeuralNetworkClassifier(model, num_classes=2, backend="loop")

    def test_fused_detects_wrong_output_width_at_compile(self, rng):
        model = Sequential([Dense(3, 5, seed=0)])
        clf = NeuralNetworkClassifier(model, num_classes=3, epochs=1)
        with pytest.raises(ModelConfigError, match="5 logits"):
            clf.fit(rng.normal(size=(8, 3)), np.zeros(8, dtype=np.int64))


class TestCompiledNetworkDirect:
    def test_adam_constants_are_kingma_ba_defaults(self):
        # The oracle imports these, so the parity tests cannot see a change
        # to them; every CommCNN ever fitted here used these values.
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)

    def test_dense_stack_parity(self, rng):
        model = Sequential(
            [Dense(6, 16, seed=0), ReLU(), Dense(16, 3, seed=1)]
        )
        engine = CompiledNetwork(model, (6,), 3, capacity=25)
        X = rng.normal(size=(25, 6))
        assert np.array_equal(engine.forward(X), reference_layer(model).forward(X))

    def test_conv_flatten_parity(self, rng):
        model = Sequential(
            [Conv2D(1, 3, (2, 2), seed=2), ReLU(), Flatten(), Dense(3 * 3 * 2, 2, seed=3)]
        )
        engine = CompiledNetwork(model, (1, 4, 3), 2, capacity=16)
        X = rng.normal(size=(9, 1, 4, 3))
        assert np.array_equal(engine.forward(X), reference_layer(model).forward(X))

    def test_empty_input_forward(self):
        model = Sequential([Dense(4, 2, seed=0)])
        engine = CompiledNetwork(model, (4,), 2, capacity=8)
        assert engine.forward(np.zeros((0, 4))).shape == (0, 2)

    def test_forward_rejects_more_rows_than_capacity(self, rng):
        model = Sequential([Dense(4, 2, seed=0)])
        engine = CompiledNetwork(model, (4,), 2, capacity=8)
        with pytest.raises(DimensionMismatchError, match="capacity of 8"):
            engine.forward(rng.normal(size=(9, 4)))

    def test_rejects_non_2d_output(self):
        model = Sequential([Conv2D(1, 2, (2, 2), seed=0)])
        with pytest.raises(EngineCompileError):
            CompiledNetwork(model, (1, 4, 4), 2, capacity=8)
