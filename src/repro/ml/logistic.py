"""Multinomial logistic regression (the paper's Phase III edge classifier).

The combination phase of LoCEC feeds the per-edge feature vector
``f_{⟨u,v⟩} = [tightness(u,C_u), tightness(v,C_v), r_{C_u}, r_{C_v}]`` (Eq. 4)
into a logistic-regression model to produce the final edge label.  The
implementation is a plain softmax regression with L2 regularisation, fit by
solving its objective with Newton's method — the feature dimension is tiny
(2 + 2·|L|), so the Hessian has at most a few dozen rows.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError, ModelConfigError, TrainingDivergedError
from repro.ml.base import check_fitted, check_X_y, one_hot, softmax

GRADIENT_TOLERANCE = 1e-8
""":meth:`LogisticRegression.fit` stops once every gradient entry is below
this times ``max(1, max|X|)``: a gradient entry scales with its feature, and
float64 cannot resolve it below that relative size."""

MAX_NEWTON_STEPS = 50
"""A fit that has not reached :data:`GRADIENT_TOLERANCE` after this many
Newton steps raises :class:`~repro.exceptions.TrainingDivergedError`."""

SCORING_BLOCK_ROWS = 256
""":meth:`LogisticRegression.predict_proba` takes its logits in zero-padded
blocks of exactly this many rows."""

_ARMIJO_SLOPE = 1e-4
_MIN_STEP_SCALE = 1e-10
"""Backtracking stops halving here.  A step this short barely moves the
parameters, so a solve that keeps needing it (non-finite inputs) runs into
:data:`MAX_NEWTON_STEPS` and raises."""


class LogisticRegression:
    """Multinomial (softmax) logistic regression, fit as its objective's minimiser.

    :meth:`fit` returns the minimiser of the objective :meth:`loss` reports,

    ``mean cross-entropy on (X, y) + ½·l2·(‖W‖² + ‖b‖²)``.

    The bias is penalised like the weights.  Softmax is unchanged when one
    vector is added to every class's parameters; the penalty picks the
    representative of least norm, so the Hessian is ≥ ``l2·I``, the minimiser
    is unique, and a class absent from the training labels keeps a finite
    bias.  The solve is damped Newton with Armijo backtracking, starting from
    zero and stopping once ``max|∇| < GRADIENT_TOLERANCE · max(1, max|X|)``
    (the gradient scales with the features); there is no
    schedule, seed or iteration count, and the fitted model is a
    deterministic function of ``(X, y)``.

    Parameters
    ----------
    l2:
        L2 regularisation strength applied to the weights and the bias; must
        be positive.
    num_classes:
        Number of classes; inferred from the training labels when ``None``.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0, 1.0], [0.1, 0.9], [1.0, 0.0], [0.9, 0.1]])
    >>> y = np.array([0, 0, 1, 1])
    >>> model = LogisticRegression().fit(X, y)
    >>> int(model.predict(np.array([[0.95, 0.05]]))[0])
    1
    """

    def __init__(self, l2: float = 1e-4, num_classes: int | None = None) -> None:
        if not l2 > 0:
            raise ModelConfigError("l2 must be positive")
        self.l2 = l2
        self.num_classes = num_classes
        self.weights_: np.ndarray | None = None
        self.bias_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit the model on features ``X`` (n × d) and integer labels ``y``."""
        X, y = check_X_y(X, y)
        num_classes = self.num_classes or int(y.max()) + 1
        if num_classes < 2:
            raise ModelConfigError("need at least two classes")
        n_samples = X.shape[0]
        design = np.hstack([X, np.ones((n_samples, 1))])
        targets = one_hot(y, num_classes)
        theta = np.zeros((design.shape[1], num_classes))
        objective, probabilities = self._objective(design, targets, theta)
        # The ones column makes this max(1, max|X|).
        tolerance = GRADIENT_TOLERANCE * np.max(np.abs(design))

        for _ in range(MAX_NEWTON_STEPS):
            gradient = design.T @ (probabilities - targets) / n_samples + self.l2 * theta
            if np.max(np.abs(gradient)) < tolerance:
                break
            hessian = self._hessian(design, probabilities)
            # Parameters are flattened class-major, as theta.T is.
            step = np.linalg.solve(hessian, gradient.T.ravel()).reshape(num_classes, -1).T
            slope = float(np.sum(gradient * step))
            scale = 1.0
            while True:
                candidate = theta - scale * step
                value, candidate_probabilities = self._objective(design, targets, candidate)
                sufficient = value <= objective - _ARMIJO_SLOPE * scale * slope
                if sufficient or scale < _MIN_STEP_SCALE:
                    break
                scale /= 2.0
            theta, objective, probabilities = candidate, value, candidate_probabilities
        else:
            raise TrainingDivergedError(
                f"Newton solve did not reach max|gradient| < {tolerance} "
                f"in {MAX_NEWTON_STEPS} steps"
            )

        self.weights_ = theta[:-1]
        self.bias_ = theta[-1]
        self._num_classes = num_classes
        return self

    def _objective(
        self, design: np.ndarray, targets: np.ndarray, theta: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """The objective at ``theta`` (bias as the last row, matching the
        ones column of ``design``) and the class probabilities there."""
        logits = design @ theta
        shift = logits.max(axis=1, keepdims=True)
        exp = np.exp(logits - shift)
        total = exp.sum(axis=1, keepdims=True)
        cross_entropy = np.mean(
            np.log(total[:, 0]) + shift[:, 0] - np.sum(targets * logits, axis=1)
        )
        return float(cross_entropy + 0.5 * self.l2 * np.sum(theta**2)), exp / total

    def _hessian(self, design: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
        """Hessian of the objective, class-major: ``(1/n)·(blockdiag_k Zᵀ
        diag(p_k) Z − AᵀA) + l2·I`` with ``A[i, (k, a)] = p_ik·z_ia``."""
        n_samples, width = design.shape
        num_classes = probabilities.shape[1]
        weighted = probabilities[:, :, None] * design[:, None, :]
        flat = weighted.reshape(n_samples, num_classes * width)
        hessian = -(flat.T @ flat)
        classes = np.arange(num_classes)
        blocks = hessian.reshape(num_classes, width, num_classes, width)
        blocks[classes, :, classes, :] += weighted.transpose(1, 2, 0) @ design
        hessian /= n_samples
        hessian[np.diag_indices_from(hessian)] += self.l2
        return hessian

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n_samples, n_classes)``.

        The logits are one stacked product over zero-padded blocks of
        exactly :data:`SCORING_BLOCK_ROWS` rows, so every GEMM has one
        shape.  BLAS picks its kernel, and with it the order it sums a row
        in, by shape (a one-row product is a GEMV), so one product over the
        whole batch would give a row different bytes in batches of
        different sizes.
        Blocked, ``predict_proba(X[idx])`` equals ``predict_proba(X)[idx]``
        bit for bit for any subset and order ``idx`` (with a single BLAS
        thread), and a 256-edge read is still one GEMM.
        """
        check_fitted(self, "weights_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        num_features = self.weights_.shape[0]
        if X.ndim != 2 or X.shape[1] != num_features:
            raise DimensionMismatchError(
                f"model was fitted on {num_features} features, got X of shape {X.shape}"
            )
        rows, padding = X.shape[0], -X.shape[0] % SCORING_BLOCK_ROWS
        if padding:
            X = np.concatenate([X, np.zeros((padding, num_features))])
        blocks = X.reshape(-1, SCORING_BLOCK_ROWS, num_features)
        logits = (blocks @ self.weights_).reshape(-1, self.weights_.shape[1])[:rows]
        return softmax(logits + self.bias_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class index for each row of ``X``."""
        return np.argmax(self.predict_proba(X), axis=1)

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """The objective :meth:`fit` minimises, at the fitted parameters: mean
        cross-entropy on ``(X, y)`` plus ``½·l2·(‖W‖² + ‖b‖²)``."""
        check_fitted(self, "weights_")
        X, y = check_X_y(X, y)
        design = np.hstack([X, np.ones((X.shape[0], 1))])
        theta = np.vstack([self.weights_, self.bias_])
        return self._objective(design, one_hot(y, self._num_classes), theta)[0]
