"""The layers CommCNN is assembled from, as specifications.

A layer here holds what defines it — hyper-parameters, weights and, via
``parameters()``, the ``(name, parameter, gradient)`` triples the compiled
engine (:mod:`repro.ml.nn.engine`) packs, checks and writes back.  It does
not execute: the engine compiles a model of these into one tape.  The
layer-by-layer ``forward`` / ``backward`` the engine is held to is the
oracle in ``tests/nn_reference.py``.

Convolutional layers operate on tensors of shape ``(N, C, H, W)``; dense
layers on ``(N, D)``.  The GEMM primitives below are shared by the engine
and the oracle.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelConfigError


class Layer:
    """Base class for all layers."""

    def parameters(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """``(name, parameter, gradient)`` triples; default is parameter-free."""
        return []

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return type(self).__name__


# ------------------------------------------------------------- GEMM primitives
# Shared by the compiled engine (repro.ml.nn.engine) and the layer-by-layer
# oracle (tests/nn_reference.py).  Both must perform the *same* float ops in
# the same order so their outputs stay bit-identical; in particular
# np.einsum and BLAS matmul round differently, so every contraction goes
# through exactly one of these helpers.


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
    the optional ``(F, K)`` destination (used by the fused engine to avoid
    per-batch allocation; results are bit-identical either way).
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


def conv_im2col_indices(
    channels: int, height: int, width: int, kernel_h: int, kernel_w: int
) -> np.ndarray:
    """Gather-index plan mapping flat ``(C*H*W)`` input to im2col columns.

    Returns an ``(C*kh*kw, out_h*out_w)`` integer matrix ``idx`` such that
    ``x.reshape(n, -1)[:, idx]`` is the im2col matrix of ``x`` (stride 1,
    no padding) in the oracle's layout: ``k = (row*kw + col)*C + c``.
    """
    out_h = height - kernel_h + 1
    out_w = width - kernel_w + 1
    offsets = np.arange(kernel_h)[:, None] * width + np.arange(kernel_w)[None, :]
    positions = np.arange(out_h)[:, None] * width + np.arange(out_w)[None, :]
    channel_base = np.arange(channels) * (height * width)
    # (kh*kw, C) block layout -> k index = (row*kw+col)*C + c.
    rows = (offsets.reshape(-1, 1) + channel_base[None, :]).reshape(-1, 1)
    return rows + positions.reshape(1, -1)


class Conv2D(Layer):
    """2-D convolution with stride 1 and no padding ("valid").

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        ``(kernel_h, kernel_w)``.  CommCNN uses 3×3 (square), 1×W (wide),
        H×1 (long) and 1×1 kernels.
    seed:
        Seed for He-style weight initialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: tuple[int, int],
        seed: int = 0,
    ) -> None:
        if in_channels < 1 or out_channels < 1:
            raise ModelConfigError("channel counts must be positive")
        kernel_h, kernel_w = kernel_size
        if kernel_h < 1 or kernel_w < 1:
            raise ModelConfigError("kernel dimensions must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_h = kernel_h
        self.kernel_w = kernel_w
        rng = np.random.default_rng(seed)
        fan_in = in_channels * kernel_h * kernel_w
        self.weight = rng.normal(
            scale=np.sqrt(2.0 / fan_in), size=(out_channels, in_channels, kernel_h, kernel_w)
        )
        self.bias = np.zeros(out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def parameters(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        return [
            ("weight", self.weight, self.grad_weight),
            ("bias", self.bias, self.grad_bias),
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D({self.in_channels}->{self.out_channels}, "
            f"kernel=({self.kernel_h}, {self.kernel_w}))"
        )


class ReLU(Layer):
    """Element-wise rectified linear unit."""


class MaxPool2D(Layer):
    """Max pooling with pool size equal to stride (non-overlapping windows).

    Inputs whose spatial size is not divisible by the pool size are truncated
    (floor), matching common framework behaviour.  Pool windows are clamped so
    a dimension smaller than the pool size degenerates to size-1 pooling on
    that axis, which keeps tiny CommCNN feature maps usable.  A window's
    gradient goes to its first maximal element in row-major order.
    """

    def __init__(self, pool_size: tuple[int, int] = (2, 2)) -> None:
        pool_h, pool_w = pool_size
        if pool_h < 1 or pool_w < 1:
            raise ModelConfigError("pool dimensions must be positive")
        self.pool_h = pool_h
        self.pool_w = pool_w


class GlobalMaxPool2D(Layer):
    """Global max pooling: ``(N, C, H, W)`` → ``(N, C)``."""


class Flatten(Layer):
    """Flatten ``(N, ...)`` into ``(N, D)``."""


class Dense(Layer):
    """Fully connected layer ``(N, in_features)`` → ``(N, out_features)``."""

    def __init__(self, in_features: int, out_features: int, seed: int = 0) -> None:
        if in_features < 1 or out_features < 1:
            raise ModelConfigError("feature counts must be positive")
        rng = np.random.default_rng(seed)
        self.weight = rng.normal(
            scale=np.sqrt(2.0 / in_features), size=(in_features, out_features)
        )
        self.bias = np.zeros(out_features)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def parameters(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        return [
            ("weight", self.weight, self.grad_weight),
            ("bias", self.bias, self.grad_bias),
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.weight.shape[0]}->{self.weight.shape[1]})"


class Dropout(Layer):
    """Inverted dropout; identity at inference time.

    Each training batch draws its keep mask from the layer's own generator,
    seeded here; a second fit continues its stream.
    """

    def __init__(self, rate: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= rate < 1.0:
            raise ModelConfigError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
