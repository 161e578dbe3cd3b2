"""Tests for ml.base, ml.metrics and ml.preprocessing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionMismatchError, ModelConfigError
from repro.ml import (
    accuracy,
    classification_report,
    format_report,
    one_hot,
    precision_recall_f1,
    softmax,
    train_test_split_indices,
    weighted_prf,
)
from repro.ml.base import check_X_y
from repro.types import RelationType


class TestBaseHelpers:
    def test_softmax_rows_sum_to_one(self, rng):
        logits = rng.normal(size=(5, 3))
        probabilities = softmax(logits)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(5))
        assert np.all(probabilities > 0)

    def test_softmax_is_shift_invariant(self, rng):
        logits = rng.normal(size=(4, 3))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_softmax_handles_large_values(self):
        probabilities = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probabilities).all()

    def test_one_hot(self):
        encoded = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(encoded, np.eye(3)[[0, 2, 1]])

    def test_one_hot_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            one_hot(np.array([0, 3]), 3)

    def test_check_X_y_validations(self):
        with pytest.raises(DimensionMismatchError):
            check_X_y(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            check_X_y(np.zeros(3), np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            check_X_y(np.zeros((0, 2)), np.zeros(0))
        # Labels are class indices: a fractional, non-finite, negative or
        # non-numeric label is rejected, not cast.
        for labels in (
            [0.9, 1.9, 2.9],
            [0.0, 1.0, np.nan],
            [0.0, 1.0, np.inf],
            [-1, -2, -3],
            [0, 1, -1],
            ["a", "b", "c"],
            np.array([0, 1, 2], dtype=object),
        ):
            with pytest.raises(DimensionMismatchError, match="labels must be"):
                check_X_y(np.zeros((3, 2)), labels)
        X, y = check_X_y(np.zeros((3, 2)), [0.0, 1.0, 2.0])
        assert y.tolist() == [0, 1, 2] and y.dtype == np.int64
        X, y = check_X_y([[1, 2], [3, 4]], [0, 1])
        assert X.dtype == np.float64 and y.dtype == np.int64


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax row by row, one scalar at a time: the row max and the row
    total folded left to right over the columns."""
    rows = logits.tolist()
    shifted = []
    for row in rows:
        peak = row[0]
        for value in row[1:]:
            peak = max(peak, value)
        shifted.append([value - peak for value in row])
    exp = np.exp(np.array(shifted, dtype=np.float64).reshape(logits.shape)).tolist()
    out = []
    for row in exp:
        total = row[0]
        for value in row[1:]:
            total += value
        out.append([value / total for value in row])
    return np.array(out, dtype=np.float64).reshape(logits.shape)


def reduction_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax by last-axis reductions (``np.max`` / ``np.sum(axis=-1)``),
    which the column fold must equal bit for bit at three columns."""
    exp = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    return exp / np.sum(exp, axis=-1, keepdims=True)


@st.composite
def _logit_matrices(draw):
    """0-5,000 rows of 1-6 columns: magnitudes from 1e-300 to 1e300 of
    either sign, values repeated within a row (ties) and signed zeros."""
    rows, columns = draw(st.integers(0, 5_000)), draw(st.integers(1, 6))
    pool = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6)) + [0.0, -0.0]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = rng.choice([-1.0, 1.0], (rows, columns)) * 10.0 ** rng.uniform(-300, 300, (rows, columns))
    pooled = np.array(pool)[rng.integers(len(pool), size=(rows, columns))]
    return np.where(rng.random((rows, columns)) < draw(st.floats(0, 1)), pooled, wide)


class TestSoftmaxFold:
    @given(_logit_matrices())
    @settings(max_examples=40, deadline=None)
    def test_equals_the_scalar_fold_bit_for_bit(self, logits):
        expected = reference_softmax(logits)
        actual = softmax(logits)
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
        if logits.shape[1] == 3:
            assert actual.tobytes() == reduction_softmax(logits).tobytes()

    def test_signed_zeros_and_ties(self):
        logits = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [5.0, 5.0, -1e300]])
        assert softmax(logits).tobytes() == reference_softmax(logits).tobytes()
        assert softmax(logits).tobytes() == reduction_softmax(logits).tobytes()


class TestMetrics:
    def test_accuracy_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            accuracy([0, 1], [0])

    def test_precision_recall_f1_known_values(self):
        y_true = [0, 0, 0, 1, 1, 1]
        y_pred = [0, 0, 1, 1, 1, 0]
        prf = precision_recall_f1(y_true, y_pred, label=0)
        assert prf.precision == pytest.approx(2 / 3)
        assert prf.recall == pytest.approx(2 / 3)
        assert prf.f1 == pytest.approx(2 / 3)

    def test_precision_recall_f1_absent_class(self):
        prf = precision_recall_f1([0, 0], [0, 0], label=1)
        assert prf == type(prf)(0.0, 0.0, 0.0)

    def test_accuracy(self):
        assert accuracy([1, 2, 3], [1, 2, 0]) == pytest.approx(2 / 3)
        assert accuracy([], []) == 0.0

    def test_weighted_prf_weights_by_support(self):
        y_true = [0] * 9 + [1]
        y_pred = [0] * 9 + [0]
        prf = weighted_prf(y_true, y_pred, labels=[0, 1])
        # Class 0 is perfect on recall and has 90 % of the support.
        assert prf.recall == pytest.approx(0.9)

    def test_weighted_prf_empty(self):
        prf = weighted_prf([], [], labels=[0, 1])
        assert prf.f1 == 0.0

    def test_classification_report_structure(self):
        y_true = [0, 1, 2, 0, 1, 2]
        y_pred = [0, 1, 2, 0, 1, 1]
        report = classification_report(y_true, y_pred)
        assert set(report.per_class) == set(RelationType.classification_targets())
        assert report.overall is not None
        assert 0.0 <= report.overall.f1 <= 1.0

    def test_format_report_contains_rows(self):
        report = classification_report([0, 1, 2], [0, 1, 2])
        text = format_report(report, "LoCEC-CNN")
        assert "LoCEC-CNN" in text
        assert "Overall" in text
        assert "Family Members" in text


class TestSplits:
    def test_train_test_split_indices_disjoint_and_complete(self):
        train, test = train_test_split_indices(100, test_fraction=0.2, seed=1)
        assert len(train) + len(test) == 100
        assert set(train).isdisjoint(set(test))
        assert len(test) == 20

    def test_split_indices_stratified_preserves_classes(self):
        labels = np.array([0] * 50 + [1] * 10)
        train, test = train_test_split_indices(60, 0.2, seed=0, stratify=labels)
        assert set(labels[test]) == {0, 1}

    def test_split_indices_validation(self):
        with pytest.raises(ModelConfigError):
            train_test_split_indices(10, test_fraction=0.0)
        with pytest.raises(ModelConfigError):
            train_test_split_indices(1, test_fraction=0.5)
        with pytest.raises(DimensionMismatchError):
            train_test_split_indices(10, 0.2, stratify=np.zeros(5))
