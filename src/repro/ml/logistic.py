"""Multinomial logistic regression (the paper's Phase III edge classifier).

The combination phase of LoCEC feeds the per-edge feature vector
``f_{⟨u,v⟩} = [tightness(u,C_u), tightness(v,C_v), r_{C_u}, r_{C_v}]`` (Eq. 4)
into a logistic-regression model to produce the final edge label.  The
implementation is a plain softmax regression trained by full-batch gradient
descent with L2 regularisation — the feature dimension is tiny (2 + 2·|L|),
so nothing fancier is warranted.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelConfigError
from repro.ml.base import check_fitted, check_X_y, one_hot, softmax


class LogisticRegression:
    """Multinomial (softmax) logistic regression.

    Parameters
    ----------
    learning_rate:
        Gradient-descent step size.
    num_iterations:
        Number of full-batch gradient steps.
    l2:
        L2 regularisation strength applied to the weights (not the bias).
    num_classes:
        Number of classes; inferred from the training labels when ``None``.
    seed:
        Seed for the (tiny) random weight initialisation.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0, 1.0], [0.1, 0.9], [1.0, 0.0], [0.9, 0.1]])
    >>> y = np.array([0, 0, 1, 1])
    >>> model = LogisticRegression(num_iterations=500).fit(X, y)
    >>> model.predict(np.array([[0.95, 0.05]]))[0]
    1
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        num_iterations: int = 300,
        l2: float = 1e-4,
        num_classes: int | None = None,
        seed: int = 0,
    ) -> None:
        if learning_rate <= 0:
            raise ModelConfigError("learning_rate must be positive")
        if num_iterations <= 0:
            raise ModelConfigError("num_iterations must be positive")
        if l2 < 0:
            raise ModelConfigError("l2 must be non-negative")
        self.learning_rate = learning_rate
        self.num_iterations = num_iterations
        self.l2 = l2
        self.num_classes = num_classes
        self.seed = seed
        self.weights_: np.ndarray | None = None
        self.bias_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        """Fit the model on features ``X`` (n × d) and integer labels ``y``."""
        X, y = check_X_y(X, y)
        num_classes = self.num_classes or int(y.max()) + 1
        if num_classes < 2:
            raise ModelConfigError("need at least two classes")
        n_samples, n_features = X.shape
        rng = np.random.default_rng(self.seed)
        weights = rng.normal(scale=0.01, size=(n_features, num_classes))
        bias = np.zeros(num_classes)
        targets = one_hot(y, num_classes)

        for _ in range(self.num_iterations):
            probabilities = softmax(X @ weights + bias)
            error = probabilities - targets
            grad_weights = X.T @ error / n_samples + self.l2 * weights
            grad_bias = error.mean(axis=0)
            weights -= self.learning_rate * grad_weights
            bias -= self.learning_rate * grad_bias

        self.weights_ = weights
        self.bias_ = bias
        self._num_classes = num_classes
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n_samples, n_classes)``."""
        check_fitted(self, "weights_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return softmax(X @ self.weights_ + self.bias_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class index for each row of ``X``."""
        return np.argmax(self.predict_proba(X), axis=1)

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """The objective :meth:`fit` descends, at the fitted parameters: mean
        cross-entropy on ``(X, y)`` plus the L2 penalty on the weights."""
        X, y = check_X_y(X, y)
        probabilities = self.predict_proba(X)
        targets = one_hot(y, self._num_classes)
        cross_entropy = -np.mean(
            np.sum(targets * np.log(np.clip(probabilities, 1e-12, 1.0)), axis=1)
        )
        return float(cross_entropy + 0.5 * self.l2 * np.sum(self.weights_**2))
