"""Model containers: Sequential stacks, parallel branches and a trainer.

CommCNN (Figure 8 of the paper) is a multi-branch network: the input feature
matrix flows through three convolution branches (square / wide / long) whose
outputs are flattened, concatenated and passed to fully connected layers.
:class:`Sequential` models a linear stack, :class:`ParallelConcat` models the
branch-and-concatenate pattern, and :class:`NeuralNetworkClassifier` wraps a
model with the softmax-cross-entropy loss, mini-batch Adam training and the
common ``fit`` / ``predict_proba`` / ``predict`` protocol.

The containers, like the layers, are specifications.  The classifier
compiles the model into the tape of :mod:`repro.ml.nn.engine` (every
CommCNN compiles, and a model that does not raises
:class:`~repro.ml.nn.engine.EngineCompileError`) and trains and scores on
it.  ``tests/nn_reference.py`` holds the layer-by-layer oracle the tape
is bit-identical to: logits, fitted weights and loss histories.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelConfigError
from repro.ml.base import check_fitted, check_X_y
from repro.ml.nn.engine import CompiledNetwork
from repro.ml.nn.layers import Layer
from repro.ml.nn.losses import SoftmaxCrossEntropy


class Sequential(Layer):
    """A linear stack of layers."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = list(layers)

    def parameters(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        collected: list[tuple[str, np.ndarray, np.ndarray]] = []
        for index, layer in enumerate(self.layers):
            for name, param, grad in layer.parameters():
                collected.append((f"layer{index}.{name}", param, grad))
        return collected

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential([{inner}])"


class ParallelConcat(Layer):
    """Run branches on the same input and concatenate their 2-D outputs.

    Every branch must produce a 2-D ``(N, d_i)`` output (use ``Flatten`` or a
    global pooling layer at the end of each branch); the concatenated output
    has shape ``(N, sum_i d_i)``.
    """

    def __init__(self, branches: list[Layer]) -> None:
        if not branches:
            raise ModelConfigError("ParallelConcat needs at least one branch")
        self.branches = list(branches)

    def parameters(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        collected: list[tuple[str, np.ndarray, np.ndarray]] = []
        for index, branch in enumerate(self.branches):
            for name, param, grad in branch.parameters():
                collected.append((f"branch{index}.{name}", param, grad))
        return collected


class NeuralNetworkClassifier:
    """Trainable classifier around a network emitting class logits.

    Parameters
    ----------
    model:
        A :class:`Layer` (usually :class:`Sequential`) whose output is a
        ``(N, num_classes)`` logits matrix.
    num_classes:
        Number of classes (for validation of the output width).
    epochs, batch_size, learning_rate:
        Mini-batch Adam training schedule.
    seed:
        Seed controlling the shuffling of mini-batches.

    Each :meth:`fit` compiles the model into a
    :class:`~repro.ml.nn.engine.CompiledNetwork` and trains it with fresh
    Adam moments, starting from the model's current weights: a second
    ``fit`` continues from the weights the first one left.
    """

    def __init__(
        self,
        model: Layer,
        num_classes: int,
        epochs: int = 30,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ModelConfigError("need at least two classes")
        if epochs < 1 or batch_size < 1:
            raise ModelConfigError("epochs and batch_size must be positive")
        if learning_rate <= 0:
            raise ModelConfigError("learning_rate must be positive")
        self.model = model
        self.num_classes = num_classes
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.loss = SoftmaxCrossEntropy()
        self.loss_history_: list[float] | None = None
        self._engine: CompiledNetwork | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NeuralNetworkClassifier":
        """Train on ``X`` (any shape with leading sample axis) and labels ``y``."""
        X, y = check_X_y(X, y, min_dim=2)
        # Reset fitted state up front: a fit that raises (e.g.
        # TrainingDivergedError) must leave the classifier reporting
        # not-fitted rather than serving a half-trained model.
        self.loss_history_ = None
        self._engine = None
        engine = CompiledNetwork(
            self.model, X.shape[1:], self.num_classes, capacity=self.batch_size
        )
        self.loss_history_ = engine.train(
            X,
            y,
            epochs=self.epochs,
            seed=self.seed,
            learning_rate=self.learning_rate,
            loss=self.loss,
        )
        self._engine = engine
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n_samples, num_classes)``.

        Rows are scored in blocks of exactly ``batch_size`` rows; the last
        block is zero-padded and the padding rows dropped.  BLAS is
        bit-stable only for a fixed GEMM shape, and every GEMM here has one
        shape, so a row's result does not depend on which rows share its
        call: ``predict_proba(X[idx])`` equals ``predict_proba(X)[idx]`` bit
        for bit, for any subset and order ``idx`` (with a single BLAS
        thread).  An empty ``X`` gives a ``(0, num_classes)`` matrix.
        """
        check_fitted(self, "loss_history_")
        X = np.asarray(X, dtype=np.float64)
        size = self.batch_size
        logits = np.empty((X.shape[0], self.num_classes))
        block = np.zeros((size,) + X.shape[1:])
        for start in range(0, X.shape[0], size):
            rows = min(size, X.shape[0] - start)
            block[:rows] = X[start : start + rows]
            block[rows:] = 0.0
            logits[start : start + rows] = self._engine.forward(block)[:rows]
        return SoftmaxCrossEntropy.probabilities(logits)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class index for each sample."""
        return np.argmax(self.predict_proba(X), axis=1)

    def num_parameters(self) -> int:
        """Total number of trainable scalars in the model."""
        return int(sum(param.size for _, param, _ in self.model.parameters()))
