"""The CommCNN oracle: the layer-by-layer network and a per-name Adam.

Before CommCNN had one executor, every layer of :mod:`repro.ml.nn` ran its
own ``forward`` / ``backward`` on freshly allocated tensors, cached what
its backward pass needed, and an ``Adam`` walked the model's
``(name, param, grad)`` list keyed by name.  That route lives here,
unchanged in its arithmetic, so ``tests/test_nn_engine.py`` can hold the
compiled tape of :mod:`repro.ml.nn.engine` to it bit for bit.

The product layers are specifications (hyper-parameters and weights);
:func:`reference_layer` wraps one in its executable twin, which reads the
specification's weights and writes its gradients, so a reference fit
trains the specification in place, as the tape does.
:class:`LoopClassifier` is :class:`~repro.ml.nn.NeuralNetworkClassifier`
trained and scored through those twins.  The GEMM primitives are the
product's: BLAS rounds a contraction differently from ``np.einsum``, so
both sides must call the same ones.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError, ModelConfigError, TrainingDivergedError
from repro.ml.base import check_fitted, check_X_y
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
from repro.ml.nn.engine import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
from repro.ml.nn.layers import conv_forward_gemm, conv_grad_cols, conv_grad_weight


def im2col(x, kernel_h, kernel_w):
    """Sliding ``kernel_h x kernel_w`` patches as columns: ``(N, C, H, W)``
    -> ``(N, C*kh*kw, out_h*out_w)`` for stride 1 and no padding."""
    n, channels, height, width = x.shape
    out_h = height - kernel_h + 1
    out_w = width - kernel_w + 1
    cols = np.empty((n, channels * kernel_h * kernel_w, out_h * out_w), dtype=x.dtype)
    col_index = 0
    for row in range(kernel_h):
        for col in range(kernel_w):
            patch = x[:, :, row : row + out_h, col : col + out_w]
            cols[:, col_index * channels : (col_index + 1) * channels, :] = patch.reshape(
                n, channels, out_h * out_w
            )
            col_index += 1
    return cols


def col2im(cols, x_shape, kernel_h, kernel_w):
    """Inverse of :func:`im2col`: scatter-add column gradients back."""
    n, channels, height, width = x_shape
    out_h = height - kernel_h + 1
    out_w = width - kernel_w + 1
    dx = np.zeros(x_shape, dtype=cols.dtype)
    col_index = 0
    for row in range(kernel_h):
        for col in range(kernel_w):
            patch = cols[:, col_index * channels : (col_index + 1) * channels, :]
            dx[:, :, row : row + out_h, col : col + out_w] += patch.reshape(
                n, channels, out_h, out_w
            )
            col_index += 1
    return dx


def maxpool_window_argmax(windows):
    """First-max flat argmax per ``(N, C, out_h, pool_h, out_w, pool_w)``
    pooling window, in the window's row-major ``(pool_h, pool_w)`` order."""
    n, channels, out_h, pool_h, out_w, pool_w = windows.shape
    per_window = windows.transpose(0, 1, 2, 4, 3, 5).reshape(
        n, channels, out_h, out_w, pool_h * pool_w
    )
    return per_window.argmax(axis=-1)


class LoopLayer:
    """An executable twin of the layer specification ``spec``."""

    def __init__(self, spec) -> None:
        self.spec = spec

    def clear_caches(self) -> None:
        """Drop what ``forward(training=True)`` kept for the backward pass."""


class LoopConv2D(LoopLayer):
    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._cache = None

    def forward(self, x, training=False):
        spec = self.spec
        if x.ndim != 4 or x.shape[1] != spec.in_channels:
            raise DimensionMismatchError(
                f"Conv2D expected (N, {spec.in_channels}, H, W), got {x.shape}"
            )
        n, _, height, width = x.shape
        if height < spec.kernel_h or width < spec.kernel_w:
            raise DimensionMismatchError(
                f"input {height}x{width} smaller than kernel "
                f"{spec.kernel_h}x{spec.kernel_w}"
            )
        cols = im2col(x, spec.kernel_h, spec.kernel_w)
        weight_matrix = spec.weight.reshape(spec.out_channels, -1)
        out = conv_forward_gemm(weight_matrix, cols, spec.bias)
        if training:
            self._cache = (cols, x.shape)
        out_h = height - spec.kernel_h + 1
        out_w = width - spec.kernel_w + 1
        return out.reshape(n, spec.out_channels, out_h, out_w)

    def backward(self, grad_output):
        if self._cache is None:
            raise DimensionMismatchError("backward called before forward(training=True)")
        spec = self.spec
        cols, x_shape = self._cache
        grad_flat = grad_output.reshape(grad_output.shape[0], spec.out_channels, -1)
        weight_matrix = spec.weight.reshape(spec.out_channels, -1)
        spec.grad_weight[...] = conv_grad_weight(grad_flat, cols).reshape(spec.weight.shape)
        spec.grad_bias[...] = grad_flat.sum(axis=(0, 2))
        grad_cols = conv_grad_cols(weight_matrix, grad_flat)
        return col2im(grad_cols, x_shape, spec.kernel_h, spec.kernel_w)

    def clear_caches(self):
        self._cache = None


class LoopReLU(LoopLayer):
    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._mask = None

    def forward(self, x, training=False):
        mask = x > 0
        if training:
            self._mask = mask
        return x * mask

    def backward(self, grad_output):
        return grad_output * self._mask

    def clear_caches(self):
        self._mask = None


class LoopMaxPool2D(LoopLayer):
    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._cache = None

    def forward(self, x, training=False):
        if x.ndim != 4:
            raise DimensionMismatchError(f"MaxPool2D expects (N, C, H, W), got {x.shape}")
        n, channels, height, width = x.shape
        pool_h = min(self.spec.pool_h, height)
        pool_w = min(self.spec.pool_w, width)
        out_h = height // pool_h
        out_w = width // pool_w
        trimmed = x[:, :, : out_h * pool_h, : out_w * pool_w]
        windows = trimmed.reshape(n, channels, out_h, pool_h, out_w, pool_w)
        if training:
            self._cache = (maxpool_window_argmax(windows), pool_h, pool_w, x.shape)
        return windows.max(axis=(3, 5))

    def backward(self, grad_output):
        arg, pool_h, pool_w, x_shape = self._cache
        n, channels, height, width = x_shape
        rows = np.arange(height // pool_h)[None, None, :, None] * pool_h + arg // pool_w
        columns = np.arange(width // pool_w)[None, None, None, :] * pool_w + arg % pool_w
        dx = np.zeros(x_shape, dtype=grad_output.dtype)
        dx[
            np.arange(n)[:, None, None, None],
            np.arange(channels)[None, :, None, None],
            rows,
            columns,
        ] = grad_output
        return dx

    def clear_caches(self):
        self._cache = None


class LoopGlobalMaxPool2D(LoopLayer):
    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._cache = None

    def forward(self, x, training=False):
        if x.ndim != 4:
            raise DimensionMismatchError(
                f"GlobalMaxPool2D expects (N, C, H, W), got {x.shape}"
            )
        n, channels, height, width = x.shape
        flat = x.reshape(n, channels, height * width)
        arg = flat.argmax(axis=2)
        if training:
            self._cache = (arg, x.shape)
        return flat[np.arange(n)[:, None], np.arange(channels)[None, :], arg]

    def backward(self, grad_output):
        arg, x_shape = self._cache
        n, channels, height, width = x_shape
        dx = np.zeros((n, channels, height * width), dtype=grad_output.dtype)
        dx[np.arange(n)[:, None], np.arange(channels)[None, :], arg] = grad_output
        return dx.reshape(x_shape)

    def clear_caches(self):
        self._cache = None


class LoopFlatten(LoopLayer):
    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._input_shape = None

    def forward(self, x, training=False):
        if training:
            self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output):
        return grad_output.reshape(self._input_shape)

    def clear_caches(self):
        self._input_shape = None


class LoopDense(LoopLayer):
    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._input = None

    def forward(self, x, training=False):
        weight = self.spec.weight
        if x.ndim != 2 or x.shape[1] != weight.shape[0]:
            raise DimensionMismatchError(f"Dense expected (N, {weight.shape[0]}), got {x.shape}")
        if training:
            self._input = x
        return x @ weight + self.spec.bias

    def backward(self, grad_output):
        self.spec.grad_weight[...] = self._input.T @ grad_output
        self.spec.grad_bias[...] = grad_output.sum(axis=0)
        return grad_output @ self.spec.weight.T

    def clear_caches(self):
        self._input = None


class LoopDropout(LoopLayer):
    """Inverted dropout drawing its masks from the specification's own
    generator, as the tape does."""

    def __init__(self, spec) -> None:
        super().__init__(spec)
        self._mask = None

    def forward(self, x, training=False):
        if not training or self.spec.rate == 0.0:
            return x
        keep_prob = 1.0 - self.spec.rate
        self._mask = (self.spec._rng.random(x.shape) < keep_prob) / keep_prob
        return x * self._mask

    def backward(self, grad_output):
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def clear_caches(self):
        self._mask = None


class LoopSequential(LoopLayer):
    def __init__(self, spec) -> None:
        super().__init__(spec)
        self.layers = [reference_layer(layer) for layer in spec.layers]

    def forward(self, x, training=False):
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad_output):
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def clear_caches(self):
        for layer in self.layers:
            layer.clear_caches()


class LoopParallelConcat(LoopLayer):
    def __init__(self, spec) -> None:
        super().__init__(spec)
        self.branches = [reference_layer(branch) for branch in spec.branches]
        self._split_sizes = None

    def forward(self, x, training=False):
        outputs = [branch.forward(x, training=training) for branch in self.branches]
        for out in outputs:
            if out.ndim != 2:
                raise ModelConfigError(
                    "every ParallelConcat branch must emit a 2-D output; "
                    f"got shape {out.shape}"
                )
        self._split_sizes = [out.shape[1] for out in outputs]
        return np.concatenate(outputs, axis=1)

    def backward(self, grad_output):
        grads = np.split(grad_output, np.cumsum(self._split_sizes)[:-1], axis=1)
        total = None
        for branch, grad in zip(self.branches, grads):
            branch_grad = branch.backward(grad)
            total = branch_grad if total is None else total + branch_grad
        return total

    def clear_caches(self):
        self._split_sizes = None
        for branch in self.branches:
            branch.clear_caches()


_TWINS = {
    Conv2D: LoopConv2D,
    ReLU: LoopReLU,
    MaxPool2D: LoopMaxPool2D,
    GlobalMaxPool2D: LoopGlobalMaxPool2D,
    Flatten: LoopFlatten,
    Dense: LoopDense,
    Dropout: LoopDropout,
    Sequential: LoopSequential,
    ParallelConcat: LoopParallelConcat,
}


def reference_layer(spec) -> LoopLayer:
    """The executable twin of a layer specification (containers recurse)."""
    return _TWINS[type(spec)](spec)


class Adam:
    """Adam (Kingma & Ba 2015) over ``(name, param, grad)`` triples, with
    the engine's decay rates and epsilon.

    Moments and timesteps are keyed by the *parameter name*, not by
    ``id(param)``: an array id can be recycled by the allocator after a
    parameter is garbage collected, which would splice stale state onto a
    fresh parameter.
    """

    def __init__(self, learning_rate: float = 1e-3) -> None:
        self.learning_rate = learning_rate
        self._first_moment: dict[str, np.ndarray] = {}
        self._second_moment: dict[str, np.ndarray] = {}
        self._step_count: dict[str, int] = {}

    def step(self, parameters) -> None:
        for name, param, grad in parameters:
            m = self._first_moment.get(name)
            if m is None:
                m = self._first_moment[name] = np.zeros_like(param)
            v = self._second_moment.get(name)
            if v is None:
                v = self._second_moment[name] = np.zeros_like(param)
            t = self._step_count[name] = self._step_count.get(name, 0) + 1

            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad

            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


class LoopClassifier(NeuralNetworkClassifier):
    """:class:`~repro.ml.nn.NeuralNetworkClassifier` trained and scored
    layer by layer through :func:`reference_layer`, with a fresh
    :class:`Adam` per fit.  ``network_`` is the twin of the last fit."""

    def fit(self, X, y):
        X, y = check_X_y(X, y, min_dim=2)
        self.loss_history_ = None
        self._engine = None
        self.network_ = reference_layer(self.model)
        optimizer = Adam(learning_rate=self.learning_rate)
        rng = np.random.default_rng(self.seed)
        history = []
        for epoch in range(self.epochs):
            order = rng.permutation(X.shape[0])
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, X.shape[0], self.batch_size):
                batch_idx = order[start : start + self.batch_size]
                logits = self.network_.forward(X[batch_idx], training=True)
                if logits.shape[1] != self.num_classes:
                    raise ModelConfigError(
                        f"model emits {logits.shape[1]} logits, "
                        f"expected {self.num_classes}"
                    )
                batch_loss = self.loss.forward(logits, y[batch_idx])
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(
                        f"non-finite batch loss ({batch_loss}) in epoch "
                        f"{epoch + 1} of {self.epochs}"
                    )
                self.network_.backward(self.loss.backward())
                optimizer.step(self.model.parameters())
                epoch_loss += batch_loss
                num_batches += 1
            history.append(epoch_loss / num_batches)
        self.network_.clear_caches()
        self.loss_history_ = history
        return self

    def predict_proba(self, X):
        """Scores in zero-padded blocks of ``batch_size`` rows, as the
        product does."""
        check_fitted(self, "loss_history_")
        X = np.asarray(X, dtype=np.float64)
        size = self.batch_size
        logits = np.empty((X.shape[0], self.num_classes))
        block = np.zeros((size,) + X.shape[1:])
        for start in range(0, X.shape[0], size):
            rows = min(size, X.shape[0] - start)
            block[:rows] = X[start : start + rows]
            block[rows:] = 0.0
            logits[start : start + rows] = self.network_.forward(block)[:rows]
        return SoftmaxCrossEntropy.probabilities(logits)
