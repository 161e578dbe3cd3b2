"""Input checks and shared math of the from-scratch ML substrate.

Every classifier in :mod:`repro.ml` follows the same fit/predict shape:
``fit(X, y)`` trains on a 2-D (or, for CNNs, 4-D) feature array and an
integer label vector and returns ``self``; ``predict_proba(X)`` returns an
``(n_samples, n_classes)`` probability matrix; ``predict(X)`` the argmax
class indices.  :func:`check_X_y` is the one validation every ``fit``
runs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError, NotFittedError


def check_fitted(estimator: object, attribute: str) -> None:
    """Raise :class:`NotFittedError` unless ``estimator.attribute`` is set."""
    if getattr(estimator, attribute, None) is None:
        raise NotFittedError(estimator)


def check_X_y(X: np.ndarray, y: np.ndarray, min_dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Validate and coerce a feature array and label vector.

    Ensures ``X`` is a float array with at least ``min_dim`` dimensions, ``y``
    is a 1-D integer array, and their first dimensions agree.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim < min_dim:
        raise DimensionMismatchError(
            f"X must have at least {min_dim} dimensions, got shape {X.shape}"
        )
    if y.ndim != 1:
        raise DimensionMismatchError(f"y must be 1-dimensional, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"X and y disagree on sample count: {X.shape[0]} vs {y.shape[0]}"
        )
    if X.shape[0] == 0:
        raise DimensionMismatchError("cannot fit on an empty dataset")
    return X, y.astype(np.int64, copy=False)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def one_hot(y: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label vector."""
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise DimensionMismatchError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    encoded = np.zeros((y.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(y.shape[0]), y] = 1.0
    return encoded
