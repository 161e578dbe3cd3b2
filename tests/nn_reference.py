"""The CommCNN oracle: Figure 8 layer by layer, with a per-name Adam.

Every layer here is its own specification and executor: it holds its
hyper-parameters and weights, runs ``forward`` / ``backward`` on freshly
allocated tensors, and caches what its backward pass needs.
:func:`figure8` assembles CommCNN from these layers with the product's
initialisation seeds, and :class:`LoopClassifier` trains a model with a
fresh :class:`Adam` per fit and scores it in zero-padded blocks of
``batch_size`` rows; :func:`loop_commcnn` pairs the two as
``build_commcnn_classifier`` does.  ``tests/test_nn_engine.py`` holds
:class:`repro.ml.nn.network.NeuralNetworkClassifier` to it bit for bit.

From the product this imports only the GEMM helpers (BLAS rounds a
contraction differently from ``np.einsum``, so both sides must call the
same ones), Adam's constants and the softmax cross-entropy.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import (
    DimensionMismatchError,
    ModelConfigError,
    NotFittedError,
    TrainingDivergedError,
)
from repro.ml.nn.losses import SoftmaxCrossEntropy
from repro.ml.nn.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    conv_forward_gemm,
    conv_grad_cols,
    conv_grad_weight,
)


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


class Layer:
    """A layer: ``forward`` / ``backward`` plus its ``(name, param, grad)``
    triples (none by default)."""

    def parameters(self):
        return []

    def clear_caches(self) -> None:
        """Drop what ``forward(training=True)`` kept for the backward pass."""


class Conv2D(Layer):
    """2-D convolution with stride 1 and no padding, He-initialised from
    ``default_rng(seed)``."""

    def __init__(self, in_channels, out_channels, kernel_size, seed=0) -> None:
        if in_channels < 1 or out_channels < 1:
            raise ModelConfigError("channel counts must be positive")
        kernel_h, kernel_w = kernel_size
        if kernel_h < 1 or kernel_w < 1:
            raise ModelConfigError("kernel dimensions must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_h = kernel_h
        self.kernel_w = kernel_w
        fan_in = in_channels * kernel_h * kernel_w
        self.weight = np.random.default_rng(seed).normal(
            scale=np.sqrt(2.0 / fan_in), size=(out_channels, in_channels, kernel_h, kernel_w)
        )
        self.bias = np.zeros(out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._cache = None

    def parameters(self):
        return [("weight", self.weight, self.grad_weight), ("bias", self.bias, self.grad_bias)]

    def forward(self, x, training=False):
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise DimensionMismatchError(
                f"Conv2D expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, height, width = x.shape
        if height < self.kernel_h or width < self.kernel_w:
            raise DimensionMismatchError(
                f"input {height}x{width} smaller than kernel {self.kernel_h}x{self.kernel_w}"
            )
        cols = im2col(x, self.kernel_h, self.kernel_w)
        weight_matrix = self.weight.reshape(self.out_channels, -1)
        out = conv_forward_gemm(weight_matrix, cols, self.bias)
        if training:
            self._cache = (cols, x.shape)
        out_h = height - self.kernel_h + 1
        out_w = width - self.kernel_w + 1
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_output):
        if self._cache is None:
            raise DimensionMismatchError("backward called before forward(training=True)")
        cols, x_shape = self._cache
        grad_flat = grad_output.reshape(grad_output.shape[0], self.out_channels, -1)
        weight_matrix = self.weight.reshape(self.out_channels, -1)
        self.grad_weight[...] = conv_grad_weight(grad_flat, cols).reshape(self.weight.shape)
        self.grad_bias[...] = grad_flat.sum(axis=(0, 2))
        grad_cols = conv_grad_cols(weight_matrix, grad_flat)
        return col2im(grad_cols, x_shape, self.kernel_h, self.kernel_w)

    def clear_caches(self):
        self._cache = None


class ReLU(Layer):
    def __init__(self) -> None:
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


class MaxPool2D(Layer):
    """Max pooling with pool size equal to stride, floor-truncated; a pool
    larger than the map is clamped to it.  A window's gradient goes to its
    first maximal element in row-major order."""

    def __init__(self, pool_size=(2, 2)) -> None:
        pool_h, pool_w = pool_size
        if pool_h < 1 or pool_w < 1:
            raise ModelConfigError("pool dimensions must be positive")
        self.pool_h = pool_h
        self.pool_w = pool_w
        self._cache = None

    def forward(self, x, training=False):
        if x.ndim != 4:
            raise DimensionMismatchError(f"MaxPool2D expects (N, C, H, W), got {x.shape}")
        n, channels, height, width = x.shape
        pool_h = min(self.pool_h, height)
        pool_w = min(self.pool_w, width)
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


class GlobalMaxPool2D(Layer):
    """``(N, C, H, W)`` -> ``(N, C)``; the gradient goes to the first maximum."""

    def __init__(self) -> None:
        self._cache = None

    def forward(self, x, training=False):
        if x.ndim != 4:
            raise DimensionMismatchError(f"GlobalMaxPool2D expects (N, C, H, W), got {x.shape}")
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


class Flatten(Layer):
    def __init__(self) -> None:
        self._input_shape = None

    def forward(self, x, training=False):
        if training:
            self._input_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_output):
        return grad_output.reshape(self._input_shape)

    def clear_caches(self):
        self._input_shape = None


class Dense(Layer):
    """``(N, in_features)`` -> ``(N, out_features)``, He-initialised from
    ``default_rng(seed)``."""

    def __init__(self, in_features, out_features, seed=0) -> None:
        if in_features < 1 or out_features < 1:
            raise ModelConfigError("feature counts must be positive")
        self.weight = np.random.default_rng(seed).normal(
            scale=np.sqrt(2.0 / in_features), size=(in_features, out_features)
        )
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input = None

    def parameters(self):
        return [("weight", self.weight, self.grad_weight), ("bias", self.bias, self.grad_bias)]

    def forward(self, x, training=False):
        if x.ndim != 2 or x.shape[1] != self.weight.shape[0]:
            raise DimensionMismatchError(
                f"Dense expected (N, {self.weight.shape[0]}), got {x.shape}"
            )
        if training:
            self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_output):
        self.grad_weight[...] = self._input.T @ grad_output
        self.grad_bias[...] = grad_output.sum(axis=0)
        return grad_output @ self.weight.T

    def clear_caches(self):
        self._input = None


class Dropout(Layer):
    """Inverted dropout, identity at inference; each training batch draws
    its keep mask from the layer's own generator, which a second fit
    continues."""

    def __init__(self, rate=0.5, seed=0) -> None:
        if not 0.0 <= rate < 1.0:
            raise ModelConfigError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask = None

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            return x
        keep_prob = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep_prob) / keep_prob
        return x * self._mask

    def backward(self, grad_output):
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def clear_caches(self):
        self._mask = None


class Sequential(Layer):
    def __init__(self, layers) -> None:
        self.layers = list(layers)

    def parameters(self):
        return [
            (f"layer{index}.{name}", param, grad)
            for index, layer in enumerate(self.layers)
            for name, param, grad in layer.parameters()
        ]

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


class ParallelConcat(Layer):
    """Run branches on the same input and concatenate their 2-D outputs."""

    def __init__(self, branches) -> None:
        if not branches:
            raise ModelConfigError("ParallelConcat needs at least one branch")
        self.branches = list(branches)
        self._split_sizes = None

    def parameters(self):
        return [
            (f"branch{index}.{name}", param, grad)
            for index, branch in enumerate(self.branches)
            for name, param, grad in branch.parameters()
        ]

    def forward(self, x, training=False):
        outputs = [branch.forward(x, training=training) for branch in self.branches]
        for out in outputs:
            if out.ndim != 2:
                raise ModelConfigError(
                    f"every ParallelConcat branch must emit a 2-D output; got shape {out.shape}"
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


def figure8(
    k,
    num_columns,
    num_classes,
    config,
    include_square_branch=True,
    include_wide_branch=True,
    include_long_branch=True,
):
    """CommCNN (Figure 8) for ``(N, 1, k, num_columns)`` inputs, from the
    hyper-parameters of a :class:`repro.core.config.CommCNNConfig`.

    Square branch: a 3x3 convolution and two (3x3 convolution, 2x2 max
    pool) modules, each kernel clamped to its map; wide branch: a
    ``1 x num_columns`` then a 1x1 convolution and global max pooling; long
    branch: ``k x 1`` then 1x1 and global max pooling.  Every convolution is
    followed by a ReLU.  Head: dense + ReLU (+ dropout), dense + ReLU, dense.
    """
    filters, seed = config.num_filters, config.seed
    branches, widths = [], []
    if include_square_branch:
        kernel = (min(3, k), min(3, num_columns))
        layers = [Conv2D(1, filters, kernel, seed=seed), ReLU()]
        height, width = k - kernel[0] + 1, num_columns - kernel[1] + 1
        for module in range(2):
            kernel = (min(3, height), min(3, width))
            layers += [
                Conv2D(filters, filters, kernel, seed=seed + module + 1),
                ReLU(),
                MaxPool2D((2, 2)),
            ]
            height = max(1, (height - kernel[0] + 1) // 2)
            width = max(1, (width - kernel[1] + 1) // 2)
        branches.append(Sequential(layers + [Flatten()]))
        widths.append(filters * height * width)
    for included, kernel, offset in (
        (include_wide_branch, (1, num_columns), 10),
        (include_long_branch, (k, 1), 20),
    ):
        if included:
            branches.append(
                Sequential(
                    [
                        Conv2D(1, filters, kernel, seed=seed + offset),
                        ReLU(),
                        Conv2D(filters, filters, (1, 1), seed=seed + offset + 1),
                        ReLU(),
                        GlobalMaxPool2D(),
                    ]
                )
            )
            widths.append(filters)
    hidden = max(config.dense_units // 2, num_classes)
    head = [
        ParallelConcat(branches),
        Dense(sum(widths), config.dense_units, seed=seed + 30),
        ReLU(),
    ]
    if config.dropout != 0.0:
        head.append(Dropout(config.dropout, seed=seed + 31))
    head += [
        Dense(config.dense_units, hidden, seed=seed + 32),
        ReLU(),
        Dense(hidden, num_classes, seed=seed + 33),
    ]
    return Sequential(head)


class Adam:
    """Adam (Kingma & Ba 2015) over ``(name, param, grad)`` triples, with
    the product's decay rates and epsilon.

    Moments and timesteps are keyed by the *parameter name*, not by
    ``id(param)``: an array id can be recycled by the allocator after a
    parameter is garbage collected, which would splice stale state onto a
    fresh parameter.
    """

    def __init__(self, learning_rate=1e-3) -> None:
        self.learning_rate = learning_rate
        self._first_moment = {}
        self._second_moment = {}
        self._step_count = {}

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


class LoopClassifier:
    """``model`` (e.g. :func:`figure8`) trained layer by layer in place,
    with mini-batch shuffles from ``default_rng(seed)`` and a fresh
    :class:`Adam` per fit, and scored in zero-padded blocks of
    ``batch_size`` rows, as the product does."""

    def __init__(self, model, num_classes, epochs, batch_size, learning_rate, seed) -> None:
        self.model = model
        self.num_classes = num_classes
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.loss = SoftmaxCrossEntropy()
        self.loss_history_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.shape[0] == 0:
            raise DimensionMismatchError("cannot fit on an empty dataset")
        self.loss_history_ = None
        optimizer = Adam(learning_rate=self.learning_rate)
        rng = np.random.default_rng(self.seed)
        history = []
        for epoch in range(self.epochs):
            order = rng.permutation(X.shape[0])
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, X.shape[0], self.batch_size):
                batch_idx = order[start : start + self.batch_size]
                logits = self.model.forward(X[batch_idx], training=True)
                if logits.shape[1] != self.num_classes:
                    raise ModelConfigError(
                        f"model emits {logits.shape[1]} logits, expected {self.num_classes}"
                    )
                batch_loss = self.loss.forward(logits, y[batch_idx])
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(
                        f"non-finite batch loss ({batch_loss}) in epoch "
                        f"{epoch + 1} of {self.epochs}"
                    )
                self.model.backward(self.loss.backward())
                optimizer.step(self.model.parameters())
                epoch_loss += batch_loss
                num_batches += 1
            history.append(epoch_loss / num_batches)
        self.model.clear_caches()
        self.loss_history_ = history
        return self

    def predict_proba(self, X):
        if self.loss_history_ is None:
            raise NotFittedError(self)
        X = np.asarray(X, dtype=np.float64)
        size = self.batch_size
        logits = np.empty((X.shape[0], self.num_classes))
        block = np.zeros((size,) + X.shape[1:])
        for start in range(0, X.shape[0], size):
            rows = min(size, X.shape[0] - start)
            block[:rows] = X[start : start + rows]
            block[rows:] = 0.0
            logits[start : start + rows] = self.model.forward(block)[:rows]
        return SoftmaxCrossEntropy.probabilities(logits)

    def predict(self, X):
        return np.argmax(self.predict_proba(X), axis=1)


def loop_commcnn(k, num_columns, num_classes, config, **branch_toggles):
    """The oracle's twin of ``repro.core.commcnn.build_commcnn_classifier``:
    :func:`figure8` with ``config``'s training schedule."""
    return LoopClassifier(
        figure8(k, num_columns, num_classes, config, **branch_toggles),
        num_classes,
        config.epochs,
        config.batch_size,
        config.learning_rate,
        config.seed,
    )
