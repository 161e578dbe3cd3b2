"""Parity suite: the CommCNN network must be bit-identical to its oracle.

Every parity test fits the same CommCNN twice — layer by layer on the oracle
of ``tests/nn_reference.py`` (``"loop"``), built from its own layer
specifications, and on the product's network (``"fused"``) — and compares
bytes: the product's packed parameter and gradient vectors against the
oracle's flattened parameters and gradients, the loss histories and the
probabilities.  Hand-picked cases and generated configurations cover ``k``
and column counts from 1, every branch toggle, ragged last batches, dropout
on and off and a second fit.  ``TestBlockedInference`` holds the block
contract on both: a row's probabilities do not depend on the rows sharing
its call.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.commcnn import build_commcnn_classifier
from repro.core.config import CommCNNConfig
from repro.exceptions import DimensionMismatchError, TrainingDivergedError
from repro.ml.nn import NeuralNetworkClassifier
from repro.ml.nn.network import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
from tests.nn_reference import loop_commcnn

BRANCHES = ("include_square_branch", "include_wide_branch", "include_long_branch")


def _commcnn(k, num_columns, num_classes, config, backend, **branch_toggles):
    """CommCNN for ``config`` on the product (``"fused"``) or on the
    layer-by-layer oracle (``"loop"``)."""
    build = build_commcnn_classifier if backend == "fused" else loop_commcnn
    return build(k, num_columns, num_classes, config, **branch_toggles)


def _packed(clf) -> tuple[np.ndarray, np.ndarray]:
    """A classifier's parameters and gradients as two flat vectors."""
    if isinstance(clf, NeuralNetworkClassifier):
        return clf.theta, clf.grad
    triples = clf.model.parameters()
    return (
        np.concatenate([param.ravel() for _, param, _ in triples]),
        np.concatenate([grad.ravel() for _, _, grad in triples]),
    )


def _assert_identical(loop_clf, fused_clf, X) -> None:
    assert loop_clf.loss_history_ == fused_clf.loss_history_
    (loop_theta, loop_grad), (fused_theta, fused_grad) = _packed(loop_clf), _packed(fused_clf)
    assert loop_theta.tobytes() == fused_theta.tobytes(), "weights diverge"
    assert loop_grad.tobytes() == fused_grad.tobytes(), "gradients diverge"
    assert loop_clf.predict_proba(X).tobytes() == fused_clf.predict_proba(X).tobytes()


def _fit_pair(k, num_columns, num_classes, X, y, config, **branch_toggles):
    """Fit two identically-configured CommCNNs, the oracle and the product."""
    loop_clf, fused_clf = (
        _commcnn(k, num_columns, num_classes, config, backend, **branch_toggles).fit(X, y)
        for backend in ("loop", "fused")
    )
    return loop_clf, fused_clf


def _random_problem(rng, n, k, num_columns, num_classes):
    X = rng.normal(size=(n, 1, k, num_columns))
    # Zero-pad some trailing rows like real community tensors.
    X[rng.random(n) < 0.3, :, k // 2 :, :] = 0.0
    y = rng.integers(0, num_classes, size=n)
    return X, y


@st.composite
def commcnn_cases(draw):
    """A CommCNN shape and configuration, and the row counts of two fits."""
    k = draw(st.integers(1, 16))
    num_columns = draw(st.integers(1, 16))
    toggles = draw(
        st.fixed_dictionaries({name: st.booleans() for name in BRANCHES}).filter(
            lambda toggles: any(toggles.values())
        )
    )
    config = CommCNNConfig(
        num_filters=draw(st.integers(1, 4)),
        dense_units=draw(st.integers(1, 12)),
        epochs=draw(st.integers(1, 2)),
        batch_size=draw(st.integers(1, 20)),
        dropout=draw(st.one_of(st.just(0.0), st.floats(0.05, 0.9))),
        seed=draw(st.integers(0, 2**16)),
    )
    rows = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    return k, num_columns, draw(st.integers(2, 4)), config, toggles, rows


_FULL = dict.fromkeys(BRANCHES, True)


class TestCommCNNParity:
    @settings(max_examples=40, deadline=None)
    @given(case=commcnn_cases(), data_seed=st.integers(0, 2**16))
    # k = 1 and one column: every first kernel is 1x1 (no im2col gather).
    @example(
        case=(1, 1, 2, CommCNNConfig(epochs=2, batch_size=4, seed=3), _FULL, (9, 5)),
        data_seed=0,
    )
    # The pipeline's shape, with two 3x3 square modules and 2x2 pools.
    @example(
        case=(12, 9, 3, CommCNNConfig(epochs=2, dropout=0.2), _FULL, (40, 7)),
        data_seed=1,
    )
    def test_generated_configurations_fit_refit_and_score_identically(self, case, data_seed):
        """Two fits of one classifier: the second continues from the first
        one's weights with fresh Adam moments and the dropout stream where
        the first left it.  Each is scored on 3n+7 unseen rows."""
        k, num_columns, num_classes, config, toggles, rows = case
        rng = np.random.default_rng(data_seed)
        loop_clf = _commcnn(k, num_columns, num_classes, config, "loop", **toggles)
        fused_clf = _commcnn(k, num_columns, num_classes, config, "fused", **toggles)
        for n in rows:
            X, y = _random_problem(rng, n, k, num_columns, num_classes)
            unseen, _ = _random_problem(rng, 3 * n + 7, k, num_columns, num_classes)
            loop_clf.fit(X, y)
            fused_clf.fit(X, y)
            _assert_identical(loop_clf, fused_clf, unseen)

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
        assert np.array_equal(loop_clf.predict_proba(X_big), fused_clf.predict_proba(X_big))
        # The 300 rows ran through the one batch_size-row input buffer.
        assert fused_clf._input.shape[0] == config.batch_size

    def test_refit_same_classifier(self):
        """A second fit continues from the first fit's weights with fresh
        Adam moments — it equals a new classifier started from a copy of the
        once-fitted weights — and stays bit-identical to the loop."""
        rng = np.random.default_rng(31)
        X1, y1 = _random_problem(rng, 40, 8, 6, 3)
        X2, y2 = _random_problem(rng, 36, 8, 6, 3)
        config = CommCNNConfig(epochs=2, dropout=0.0, seed=9)
        fitted = []
        for backend in ("loop", "fused"):
            clf = _commcnn(8, 6, 3, config, backend)
            clf.fit(X1, y1)
            restarted = _commcnn(8, 6, 3, config, backend)
            if backend == "loop":
                restarted.model = copy.deepcopy(clf.model)
            else:
                restarted.theta[...] = clf.theta
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
    fitted = {
        backend: _commcnn(10, 7, 3, config, backend).fit(X, y) for backend in ("loop", "fused")
    }
    return fitted, X


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
        clf = build_commcnn_classifier(8, 6, 2, config=CommCNNConfig(epochs=2))
        clf.fit(X, y)
        assert type(clf) is NeuralNetworkClassifier and len(clf.loss_history_) == 2

    def test_invalid_backend_rejected(self):
        # There is no selector to get wrong: the layer-by-layer oracle is
        # tests/nn_reference.py, and a stale ``backend=`` caller fails.
        with pytest.raises(TypeError):
            build_commcnn_classifier(4, 3, 2, backend="loop")


class TestCompiledNetworkDirect:
    """The network's forward pass called directly, below ``predict_proba``'s
    blocks."""

    def test_empty_input_forward(self):
        clf = build_commcnn_classifier(4, 3, 2, config=CommCNNConfig(dropout=0.3))
        for training in (False, True):
            assert clf._forward(0, training=training).shape == (0, 2)


class TestNetwork:
    def test_adam_constants_are_kingma_ba_defaults(self):
        # The oracle imports these, so the parity tests cannot see a change
        # to them; every CommCNN ever fitted here used these values.
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)

    def test_fit_rejects_a_tensor_of_another_k(self, rng):
        # A (1, 5, 3) tensor passed every branch width of a k = 4 model, so
        # the compiled engine used to train on it.
        clf = build_commcnn_classifier(4, 3, 3, config=CommCNNConfig(epochs=1))
        with pytest.raises(DimensionMismatchError, match=r"\(10, 1, 5, 3\)"):
            clf.fit(rng.normal(size=(10, 1, 5, 3)), np.array([0, 1] * 5))

    def test_predict_proba_names_the_callers_shape(self, rng):
        clf = build_commcnn_classifier(4, 3, 2, config=CommCNNConfig(epochs=1))
        clf.fit(rng.normal(size=(6, 1, 4, 3)), np.array([0, 1] * 3))
        # It used to name the zero-padded block, (32, 1, 4, 4).
        with pytest.raises(DimensionMismatchError, match=r"\(2, 1, 4, 4\)"):
            clf.predict_proba(rng.normal(size=(2, 1, 4, 4)))

    def test_a_diverged_fit_keeps_the_weights_it_started_from(self, rng):
        X = rng.normal(size=(8, 1, 4, 3))
        X[5] = np.nan  # the third batch of seed 0's first epoch: two steps run first
        clf = build_commcnn_classifier(4, 3, 2, config=CommCNNConfig(epochs=3, batch_size=2))
        before = clf.theta.copy()
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            clf.fit(X, np.array([0, 1] * 4))
        assert clf.theta.tobytes() == before.tobytes()
