"""CommCNN, the convolutional community classifier of Figure 8, written once.

The ``k × num_columns`` community feature matrix is a one-channel image that
three branches of convolution kernels read:

* **square**: a 3×3 convolution, then two *Square Convolution Modules* (3×3
  convolution + 2×2 max pooling) that abstract features to a deeper level;
* **wide**: a ``1 × num_columns`` kernel that looks at all features of one
  node at a time, then a 1×1 convolution and global max pooling;
* **long**: a ``k × 1`` kernel that compares all nodes within one feature
  dimension, then a 1×1 convolution and global max pooling.

A kernel or pool larger than its feature map is clamped to the map, so
every ``k, num_columns >= 1`` builds.  The branch outputs are concatenated
and fed to three dense layers (ReLU, optional inverted dropout, ReLU) and a
softmax over the classes.  The branch toggles serve the kernel ablation;
the paper's model has all three.

Every convolution is followed by a ReLU, applied in place in the
convolution's output buffer.  Every buffer holds ``batch_size`` rows and is
allocated once, when the classifier is built; a ragged last training batch
runs on their leading rows, and scoring runs in zero-padded blocks of
exactly ``batch_size`` rows.  All parameters and gradients live in two
packed vectors, so an Adam step is a handful of whole-vector ops.

``tests/nn_reference.py`` builds the same network from its own
layer-by-layer specifications; fitted weights, gradients, loss histories
and probabilities equal it bit for bit (``tests/test_nn_engine.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import (
    DimensionMismatchError,
    ModelConfigError,
    TrainingDivergedError,
)
from repro.ml.base import check_fitted, check_X_y
from repro.ml.nn.losses import SoftmaxCrossEntropy

# Adam's decay rates and denominator guard (Kingma & Ba 2015's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


# ------------------------------------------------------------- GEMM primitives
# Shared by the network below and the layer-by-layer oracle
# (tests/nn_reference.py).  Both must perform the *same* float ops in the
# same order so their outputs stay bit-identical; in particular np.einsum
# and BLAS matmul round differently, so every contraction goes through
# exactly one of these helpers.


def conv_forward_gemm(
    weight_matrix: np.ndarray,
    cols: np.ndarray,
    bias: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``(F, K) @ (N, K, P) + bias`` → ``(N, F, P)`` via batched 2-D GEMM."""
    out = np.matmul(weight_matrix, cols, out=out)
    out += bias[None, :, None]
    return out


def conv_grad_weight(
    grad_flat: np.ndarray,
    cols: np.ndarray,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Weight gradient ``sum_n grad[n] @ cols[n].T`` via batched 2-D GEMM.

    ``(N, F, P) x (N, K, P)`` → ``(F, K)``.  The batched-matmul-then-reduce
    form beats one big transposed GEMM here because it needs no layout
    copies.  ``work`` is an optional ``(N, F, K)`` scratch buffer and ``out``
    the optional ``(F, K)`` destination (results are bit-identical either
    way).
    """
    per_sample = np.matmul(grad_flat, cols.transpose(0, 2, 1), out=work)
    return per_sample.sum(axis=0, out=out)


def conv_grad_cols(
    weight_matrix: np.ndarray,
    grad_flat: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Column gradient ``(K, F) @ (N, F, P)`` → ``(N, K, P)`` via batched GEMM."""
    return np.matmul(weight_matrix.T, grad_flat, out=out)


# ---------------------------------------------------------------------- stages
# A stage reads an input buffer and writes an output buffer, both flat
# ``(batch_size, size)`` arrays, and keeps the per-sample ``shape``
# ``(channels, height, width)`` of its output.  Its backward pass reads its
# output's gradient buffer and writes its input's (if it has one).


def _relu(x: np.ndarray, mask: np.ndarray) -> None:
    np.greater(x, 0, out=mask)
    np.multiply(x, mask, out=x)


def _pooled(shape: tuple[int, int, int], pool: tuple[int, int]) -> tuple[int, int, int]:
    """Per-sample output shape of max pooling ``shape`` with ``pool``."""
    channels, height, width = shape
    return channels, height // min(pool[0], height), width // min(pool[1], width)


class _Conv:
    """Stride-1 "valid" convolution, then a ReLU in place.

    Forward is an im2col gather plus one batched GEMM; backward is two GEMMs
    plus a ``bincount`` scatter-add of the column gradient.  A 1×1 kernel's
    columns are its input, so it gathers and scatters nothing.  The weight
    is He-initialised from ``default_rng(seed)``.
    """

    def __init__(self, x, x_grad, shape, filters: int, kernel, seed: int) -> None:
        channels, height, width = shape
        kernel_h, kernel_w = min(kernel[0], height), min(kernel[1], width)
        fan_in = channels * kernel_h * kernel_w
        self.weight = (
            np.random.default_rng(seed)
            .normal(scale=np.sqrt(2.0 / fan_in), size=(filters, channels, kernel_h, kernel_w))
            .reshape(filters, fan_in)
        )
        self.bias = np.zeros(filters)
        self.shape = (filters, height - kernel_h + 1, width - kernel_w + 1)
        capacity, positions = x.shape[0], self.shape[1] * self.shape[2]
        self.x, self.x_grad = x, x_grad
        self.out = np.empty((capacity, filters * positions))
        self.out_grad = np.empty_like(self.out)
        self.mask = np.empty((capacity, filters, positions), dtype=bool)
        self.work = np.empty((capacity, filters, fan_in))
        if kernel_h == kernel_w == 1:
            self.gather = None
            self.cols = x.reshape(capacity, fan_in, positions)
            if x_grad is not None:
                self.cols_grad = x_grad.reshape(capacity, fan_in, positions)
            return
        # im2col plan: cols[:, (row*kw + col)*C + c, position] = x[:, c, ...].
        out_h, out_w = self.shape[1:]
        offsets = np.arange(kernel_h)[:, None] * width + np.arange(kernel_w)[None, :]
        starts = np.arange(out_h)[:, None] * width + np.arange(out_w)[None, :]
        channel_base = np.arange(channels) * (height * width)
        rows = (offsets.reshape(-1, 1) + channel_base[None, :]).reshape(-1, 1)
        self.gather = rows + starts.reshape(1, -1)
        self.cols = np.empty((capacity, fan_in, positions))
        if x_grad is not None:
            self.cols_grad = np.empty_like(self.cols)
            # Per-sample flat scatter targets: sample i writes into row i.
            self.scatter = (
                np.arange(capacity)[:, None, None] * x.shape[1] + self.gather[None]
            )

    def forward(self, n: int, training: bool) -> None:
        cols = self.cols[:n]
        if self.gather is not None:
            # mode="clip" skips numpy's bounds-checking slow path; the plan is
            # in range by construction, so values are unchanged.
            np.take(self.x[:n], self.gather, axis=1, out=cols, mode="clip")
        out = self.out[:n].reshape(self.mask[:n].shape)
        conv_forward_gemm(self.weight, cols, self.bias, out=out)
        _relu(out, self.mask[:n])

    def backward(self, n: int) -> None:
        grad = self.out_grad[:n].reshape(self.mask[:n].shape)
        grad *= self.mask[:n]
        conv_grad_weight(grad, self.cols[:n], out=self.grad_weight, work=self.work[:n])
        grad.sum(axis=(0, 2), out=self.grad_bias)
        if self.x_grad is None:
            return
        cols_grad = conv_grad_cols(self.weight, grad, out=self.cols_grad[:n])
        if self.gather is not None:
            self.x_grad[:n] = np.bincount(
                self.scatter[:n].ravel(),
                weights=cols_grad.ravel(),
                minlength=n * self.x.shape[1],
            ).reshape(n, -1)


class _MaxPool:
    """Max pooling over non-overlapping windows, floor-truncated.

    A pool larger than the map is clamped to it, so pooling a whole map is
    global max pooling.  One gather lays every window out slot by slot; the
    max then folds over the slots with strict ``>``, so a window's gradient
    goes to its first maximal element in row-major order.  ``out`` may be a
    column slice of a wider buffer (the branch concatenation).
    """

    def __init__(self, x, x_grad, shape, pool, out=None, out_grad=None) -> None:
        channels, height, width = shape
        pool_h, pool_w = min(pool[0], height), min(pool[1], width)
        self.shape = _pooled(shape, pool)
        _, out_h, out_w = self.shape
        capacity, windows = x.shape[0], channels * out_h * out_w
        self.x, self.x_grad = x, x_grad
        self.out = np.empty((capacity, windows)) if out is None else out
        self.out_grad = np.empty_like(self.out) if out_grad is None else out_grad
        rows = np.arange(out_h)[:, None] * pool_h + np.arange(pool_h)[None, :]
        columns = np.arange(out_w)[:, None] * pool_w + np.arange(pool_w)[None, :]
        spatial = (rows[:, None, :, None] * width + columns[None, :, None, :]).reshape(
            out_h * out_w, pool_h * pool_w
        )
        # (windows, window slots): the flat input index of each window element.
        self.window_inputs = (
            np.arange(channels)[:, None, None] * (height * width) + spatial[None]
        ).reshape(windows, pool_h * pool_w)
        self.gather = np.ascontiguousarray(self.window_inputs.T).reshape(-1)
        self.gathered = np.empty((capacity, pool_h * pool_w, windows))
        self.arg = np.empty((capacity, windows), dtype=np.intp)
        self.better = np.empty((capacity, windows), dtype=bool)
        self.window_idx = np.arange(windows)[None, :]
        self.sample_idx = np.arange(capacity)[:, None]

    def forward(self, n: int, training: bool) -> None:
        gathered = self.gathered[:n]
        flat = gathered.reshape(n, self.gather.size)  # (n, -1) fails on zero rows
        np.take(self.x[:n], self.gather, axis=1, mode="clip", out=flat)
        out = self.out[:n]
        out[...] = gathered[:, 0, :]
        if not training:
            for slot in range(1, gathered.shape[1]):
                np.maximum(out, gathered[:, slot, :], out=out)
            return
        arg, better = self.arg[:n], self.better[:n]
        arg[...] = 0
        for slot in range(1, gathered.shape[1]):
            candidate = gathered[:, slot, :]
            np.greater(candidate, out, out=better)
            np.copyto(out, candidate, where=better)
            np.copyto(arg, slot, where=better)

    def backward(self, n: int) -> None:
        x_grad = self.x_grad[:n]
        x_grad[...] = 0.0
        targets = self.window_inputs[self.window_idx, self.arg[:n]]
        x_grad[self.sample_idx[:n], targets] = self.out_grad[:n]


class _Dense:
    """Fully connected layer, optionally followed by a ReLU in place."""

    def __init__(self, x, x_grad, units: int, seed: int, relu: bool) -> None:
        capacity, features = x.shape
        self.weight = np.random.default_rng(seed).normal(
            scale=np.sqrt(2.0 / features), size=(features, units)
        )
        self.bias = np.zeros(units)
        self.x, self.x_grad = x, x_grad
        self.out = np.empty((capacity, units))
        self.out_grad = np.empty_like(self.out)
        self.mask = np.empty(self.out.shape, dtype=bool) if relu else None

    def forward(self, n: int) -> None:
        out = self.out[:n]
        np.matmul(self.x[:n], self.weight, out=out)
        out += self.bias
        if self.mask is not None:
            _relu(out, self.mask[:n])

    def backward(self, n: int) -> None:
        grad = self.out_grad[:n]
        if self.mask is not None:
            grad *= self.mask[:n]
        np.matmul(self.x[:n].T, grad, out=self.grad_weight)
        grad.sum(axis=0, out=self.grad_bias)
        np.matmul(grad, self.weight.T, out=self.x_grad[:n])


def _pack(stages: list) -> tuple[np.ndarray, np.ndarray]:
    """Move the stages' weights and biases into one parameter vector, in
    stage order, and give each a gradient view of the same layout."""
    theta = np.concatenate([p.ravel() for s in stages for p in (s.weight, s.bias)])
    grad = np.zeros_like(theta)
    offset = 0
    for stage in stages:
        views = []
        for param in (stage.weight, stage.bias):
            end = offset + param.size
            views += [theta[offset:end].reshape(param.shape), grad[offset:end].reshape(param.shape)]
            offset = end
        stage.weight, stage.grad_weight, stage.bias, stage.grad_bias = views
    return theta, grad


# ----------------------------------------------------------------- classifier
class NeuralNetworkClassifier:
    """CommCNN with a softmax cross-entropy loss, trained by mini-batch Adam.

    Parameters
    ----------
    k, num_columns:
        Rows and columns of the feature matrix; every input is
        ``(N, 1, k, num_columns)``.
    num_classes:
        Size of the softmax output (``|L|``).
    num_filters, dense_units, dropout:
        Filters per convolution, width of the first dense layer, and its
        inverted-dropout rate (0 for none).
    epochs, batch_size, learning_rate, seed:
        The Adam schedule; ``seed`` drives the He initialisation (offsets
        0-2 square, 10-11 wide, 20-21 long, 30/32/33 dense), the mini-batch
        shuffles and (offset 31) the dropout masks.
    include_square_branch, include_wide_branch, include_long_branch:
        Branch toggles of the kernel ablation.

    Each :meth:`fit` starts from the current weights with fresh Adam
    moments, so a second fit continues from the first.  The dropout
    generator is drawn once per training batch and continues across fits.
    """

    def __init__(
        self,
        k: int,
        num_columns: int,
        num_classes: int,
        *,
        num_filters: int,
        dense_units: int,
        dropout: float,
        epochs: int,
        batch_size: int,
        learning_rate: float,
        seed: int,
        include_square_branch: bool = True,
        include_wide_branch: bool = True,
        include_long_branch: bool = True,
    ) -> None:
        if k < 1 or num_columns < 1:
            raise ModelConfigError("k and num_columns must be positive")
        if num_classes < 2:
            raise ModelConfigError("need at least two classes")
        if num_filters < 1 or dense_units < 1:
            raise ModelConfigError("num_filters and dense_units must be positive")
        if not 0.0 <= dropout < 1.0:
            raise ModelConfigError("dropout rate must be in [0, 1)")
        if epochs < 1 or batch_size < 1:
            raise ModelConfigError("epochs and batch_size must be positive")
        if learning_rate <= 0:
            raise ModelConfigError("learning_rate must be positive")
        if not (include_square_branch or include_wide_branch or include_long_branch):
            raise ModelConfigError("at least one CommCNN branch must be enabled")
        self.num_classes = num_classes
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.loss = SoftmaxCrossEntropy()
        self.loss_history_: list[float] | None = None

        self._input = np.zeros((batch_size, 1, k, num_columns))
        x, shape = self._input.reshape(batch_size, -1), (1, k, num_columns)
        # Branch stages in execution order, bar each branch's last max-pool;
        # ``tails`` holds each branch's last convolution and pool size.
        self._stages: list = []
        tails = []
        if include_square_branch:
            conv = _Conv(x, None, shape, num_filters, (3, 3), seed)
            module = _Conv(conv.out, conv.out_grad, conv.shape, num_filters, (3, 3), seed + 1)
            pool = _MaxPool(module.out, module.out_grad, module.shape, (2, 2))
            last = _Conv(pool.out, pool.out_grad, pool.shape, num_filters, (3, 3), seed + 2)
            self._stages += [conv, module, pool, last]
            tails.append((last, (2, 2)))
        for included, kernel, offset in (
            (include_wide_branch, (1, num_columns), 10),
            (include_long_branch, (k, 1), 20),
        ):
            if included:
                conv = _Conv(x, None, shape, num_filters, kernel, seed + offset)
                last = _Conv(
                    conv.out, conv.out_grad, conv.shape, num_filters, (1, 1), seed + offset + 1
                )
                self._stages += [conv, last]
                tails.append((last, last.shape[1:]))  # global max pooling
        weighted = [stage for stage in self._stages if isinstance(stage, _Conv)]
        # The last pools write the flattened branch outputs side by side.
        bounds = np.cumsum([0] + [math.prod(_pooled(c.shape, pool)) for c, pool in tails])
        concat = np.empty((batch_size, int(bounds[-1])))
        concat_grad = np.empty_like(concat)
        for (conv, pool), start, end in zip(tails, bounds, bounds[1:]):
            self._stages.append(
                _MaxPool(
                    conv.out,
                    conv.out_grad,
                    conv.shape,
                    pool,
                    concat[:, start:end],
                    concat_grad[:, start:end],
                )
            )
        hidden = max(dense_units // 2, num_classes)
        first = _Dense(concat, concat_grad, dense_units, seed + 30, relu=True)
        second = _Dense(first.out, first.out_grad, hidden, seed + 32, relu=True)
        logits = _Dense(second.out, second.out_grad, num_classes, seed + 33, relu=False)
        self._head = (first, second, logits)
        self.theta, self.grad = _pack(weighted + list(self._head))
        self._dropout = dropout
        self._dropout_rng = np.random.default_rng(seed + 31)
        self._dropout_mask = np.empty(first.out.shape)

    def _forward(self, n: int, training: bool) -> np.ndarray:
        """Logits of the first ``n`` rows of the input buffer."""
        for stage in self._stages:
            stage.forward(n, training)
        first, second, third = self._head
        first.forward(n)
        if training and self._dropout != 0.0:
            keep = 1.0 - self._dropout
            mask = self._dropout_mask[:n]
            mask[...] = (self._dropout_rng.random(mask.shape) < keep) / keep
            first.out[:n] *= mask
        second.forward(n)
        third.forward(n)
        return third.out[:n]

    def _backward(self, n: int) -> None:
        first, second, third = self._head
        third.backward(n)
        second.backward(n)
        if self._dropout != 0.0:
            first.out_grad[:n] *= self._dropout_mask[:n]
        first.backward(n)
        for stage in reversed(self._stages):
            stage.backward(n)

    def _check_input(self, X: np.ndarray) -> None:
        if X.shape[1:] != self._input.shape[1:]:
            raise DimensionMismatchError(
                f"expected input of shape (N, {', '.join(map(str, self._input.shape[1:]))}), "
                f"got {X.shape}"
            )

    def fit(self, X: np.ndarray, y: np.ndarray) -> "NeuralNetworkClassifier":
        """Train on ``(N, 1, k, num_columns)`` tensors ``X`` and labels ``y``."""
        X, y = check_X_y(X, y, min_dim=2)
        self._check_input(X)
        # A fit that diverges leaves the classifier reporting not-fitted, with
        # the weights it started from, rather than serving a half-trained
        # model.
        self.loss_history_ = None
        theta, grad, size = self.theta, self.grad, self.batch_size
        start_theta = theta.copy()
        m, v, m_hat, v_hat = np.zeros((4, theta.size))
        rng = np.random.default_rng(self.seed)
        history = []
        step = 0
        for epoch in range(self.epochs):
            order = rng.permutation(X.shape[0])
            epoch_loss = 0.0
            for start in range(0, X.shape[0], size):
                batch = order[start : start + size]
                n = batch.shape[0]
                np.take(X, batch, axis=0, out=self._input[:n], mode="clip")
                batch_loss = self.loss.forward(self._forward(n, training=True), y[batch])
                if not np.isfinite(batch_loss):
                    theta[...] = start_theta
                    raise TrainingDivergedError(
                        f"non-finite batch loss ({batch_loss}) in epoch "
                        f"{epoch + 1} of {self.epochs}; lower the learning "
                        "rate or check the inputs for non-finite values"
                    )
                self._head[2].out_grad[:n] = self.loss.backward()
                self._backward(n)
                # Adam, as whole-vector ops over every parameter.
                step += 1
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * grad
                v *= ADAM_BETA2
                v += (1.0 - ADAM_BETA2) * grad * grad
                np.divide(m, 1.0 - ADAM_BETA1**step, out=m_hat)
                np.divide(v, 1.0 - ADAM_BETA2**step, out=v_hat)
                np.sqrt(v_hat, out=v_hat)
                v_hat += ADAM_EPSILON
                m_hat *= self.learning_rate
                m_hat /= v_hat
                theta -= m_hat
                epoch_loss += batch_loss
            history.append(epoch_loss / -(-X.shape[0] // size))
        self.loss_history_ = history
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
        self._check_input(X)
        size = self.batch_size
        logits = np.empty((X.shape[0], self.num_classes))
        for start in range(0, X.shape[0], size):
            rows = min(size, X.shape[0] - start)
            self._input[:rows] = X[start : start + rows]
            self._input[rows:] = 0.0
            logits[start : start + rows] = self._forward(size, training=False)[:rows]
        return SoftmaxCrossEntropy.probabilities(logits)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class index for each sample."""
        return np.argmax(self.predict_proba(X), axis=1)
