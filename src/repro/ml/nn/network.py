"""Model containers: Sequential stacks, parallel branches and a trainer.

CommCNN (Figure 8 of the paper) is a multi-branch network: the input feature
matrix flows through three convolution branches (square / wide / long) whose
outputs are flattened, concatenated and passed to fully connected layers.
:class:`Sequential` models a linear stack, :class:`ParallelConcat` models the
branch-and-concatenate pattern, and :class:`NeuralNetworkClassifier` wraps a
model with the softmax-cross-entropy loss, mini-batch Adam training and the
common ``fit`` / ``predict_proba`` / ``predict`` protocol.

The classifier executes on one of two backends (``backend="fused"|"loop"``):
the compiled tape of :mod:`repro.ml.nn.engine` (the default; every CommCNN
compiles, and a model that does not raises
:class:`~repro.ml.nn.engine.EngineCompileError`), or the layer-by-layer
object graph defined here, kept as the oracle.  Both run the same float
operations in the same order, so logits, fitted weights and loss histories
are bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelConfigError, TrainingDivergedError
from repro.ml.base import check_fitted, check_X_y
from repro.ml.nn.engine import CompiledNetwork
from repro.ml.nn.layers import Layer
from repro.ml.nn.losses import SoftmaxCrossEntropy
from repro.ml.nn.optimizers import Adam

#: Valid values of the ``backend`` knob on :class:`NeuralNetworkClassifier`.
NN_BACKENDS = ("fused", "loop")


class Sequential(Layer):
    """A linear stack of layers."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def parameters(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        collected: list[tuple[str, np.ndarray, np.ndarray]] = []
        for index, layer in enumerate(self.layers):
            for name, param, grad in layer.parameters():
                collected.append((f"layer{index}.{name}", param, grad))
        return collected

    def clear_caches(self) -> None:
        for layer in self.layers:
            layer.clear_caches()

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
        self._split_sizes: list[int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        outputs = [branch.forward(x, training=training) for branch in self.branches]
        for out in outputs:
            if out.ndim != 2:
                raise ModelConfigError(
                    "every ParallelConcat branch must emit a 2-D output; "
                    f"got shape {out.shape}"
                )
        self._split_sizes = [out.shape[1] for out in outputs]
        return np.concatenate(outputs, axis=1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._split_sizes is not None
        grads = np.split(grad_output, np.cumsum(self._split_sizes)[:-1], axis=1)
        total: np.ndarray | None = None
        for branch, grad in zip(self.branches, grads):
            branch_grad = branch.backward(grad)
            total = branch_grad if total is None else total + branch_grad
        assert total is not None
        return total

    def parameters(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        collected: list[tuple[str, np.ndarray, np.ndarray]] = []
        for index, branch in enumerate(self.branches):
            for name, param, grad in branch.parameters():
                collected.append((f"branch{index}.{name}", param, grad))
        return collected

    def clear_caches(self) -> None:
        self._split_sizes = None
        for branch in self.branches:
            branch.clear_caches()


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
    backend:
        ``"fused"`` (default) compiles the model into the flat tape of
        :mod:`repro.ml.nn.engine` and raises
        :class:`~repro.ml.nn.engine.EngineCompileError` for a model it
        cannot compile; ``"loop"`` walks the layer object graph, the
        bit-identical oracle.

    Each :meth:`fit` trains with a fresh :class:`~repro.ml.nn.optimizers.Adam`,
    starting from the model's current weights: a second ``fit`` continues
    from the weights the first one left, with zero Adam moments, on either
    backend.
    """

    def __init__(
        self,
        model: Layer,
        num_classes: int,
        epochs: int = 30,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        seed: int = 0,
        backend: str = "fused",
    ) -> None:
        if num_classes < 2:
            raise ModelConfigError("need at least two classes")
        if epochs < 1 or batch_size < 1:
            raise ModelConfigError("epochs and batch_size must be positive")
        if learning_rate <= 0:
            raise ModelConfigError("learning_rate must be positive")
        if backend not in NN_BACKENDS:
            raise ModelConfigError(
                f"backend must be one of {NN_BACKENDS}, got {backend!r}"
            )
        self.model = model
        self.num_classes = num_classes
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.loss = SoftmaxCrossEntropy()
        self.backend = backend
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

        optimizer = Adam(learning_rate=self.learning_rate)
        if self.backend == "fused":
            engine = CompiledNetwork(
                self.model, X.shape[1:], self.num_classes, capacity=self.batch_size
            )
            history = engine.train(
                X,
                y,
                epochs=self.epochs,
                seed=self.seed,
                optimizer=optimizer,
                loss=self.loss,
            )
            self._engine = engine
        else:
            history = self._fit_loop(X, y, optimizer)
        self.loss_history_ = history
        self.model.clear_caches()
        return self

    def _fit_loop(self, X: np.ndarray, y: np.ndarray, optimizer: Adam) -> list[float]:
        """Layer-by-layer reference training loop."""
        n_samples = X.shape[0]
        rng = np.random.default_rng(self.seed)
        history: list[float] = []
        for epoch in range(self.epochs):
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, n_samples, self.batch_size):
                batch_idx = order[start : start + self.batch_size]
                logits = self.model.forward(X[batch_idx], training=True)
                if logits.shape[1] != self.num_classes:
                    raise ModelConfigError(
                        f"model emits {logits.shape[1]} logits, "
                        f"expected {self.num_classes}"
                    )
                batch_loss = self.loss.forward(logits, y[batch_idx])
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(
                        f"non-finite batch loss ({batch_loss}) in epoch "
                        f"{epoch + 1} of {self.epochs}; lower the learning "
                        "rate or check the inputs for non-finite values"
                    )
                grad = self.loss.backward()
                self.model.backward(grad)
                optimizer.step(self.model.parameters())
                epoch_loss += batch_loss
                num_batches += 1
            history.append(epoch_loss / num_batches)
        return history

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n_samples, num_classes)``.

        Rows are scored in blocks of exactly ``batch_size`` rows on either
        backend; the last block is zero-padded and the padding rows dropped.
        BLAS is bit-stable only for a fixed GEMM shape, and every GEMM here
        has one shape, so a row's result does not depend on which rows
        share its call: ``predict_proba(X[idx])`` equals
        ``predict_proba(X)[idx]`` bit for bit, for any subset and order
        ``idx`` (with a single BLAS thread).  An empty ``X`` gives a
        ``(0, num_classes)`` matrix.
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
            if self._engine is not None:
                block_logits = self._engine.forward(block)
            else:
                block_logits = self.model.forward(block, training=False)
            logits[start : start + rows] = block_logits[:rows]
        return SoftmaxCrossEntropy.probabilities(logits)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class index for each sample."""
        return np.argmax(self.predict_proba(X), axis=1)

    def num_parameters(self) -> int:
        """Total number of trainable scalars in the model."""
        return int(sum(param.size for _, param, _ in self.model.parameters()))
