"""Compiled execution engine for the NumPy NN stack.

:class:`CompiledNetwork` compiles a built :class:`~repro.ml.nn.network.
Sequential` / :class:`~repro.ml.nn.network.ParallelConcat` model into a flat
tape of shape-specialised array ops:

* every ``Conv2D`` gets a precomputed im2col gather-index plan, so a forward
  pass is one ``np.take`` plus one batched 2-D GEMM and a backward pass is
  two GEMMs plus one ``np.bincount`` scatter-add — no Python loops over
  kernel positions;
* all activations, gradients and im2col workspaces form one workspace of
  ``capacity`` rows, allocated once at compile time and reused by every
  training mini-batch and every inference block (a ragged last training
  batch runs on leading-axis views of the same buffers).  The workspace
  never grows: :meth:`CompiledNetwork.forward` rejects more than
  ``capacity`` rows, and ``NeuralNetworkClassifier.predict_proba`` feeds
  it padded blocks of exactly ``capacity`` (= ``batch_size``) rows, so
  every inference GEMM has one shape;
* all parameters, gradients and Adam moments live in single contiguous
  vectors, so an Adam step is a handful of whole-vector ops with one shared
  timestep instead of a Python walk over parameter tensors.  Adam's
  learning rate is the classifier's; its other hyper-parameters are the
  constants below.

The engine performs the *same float operations in the same order* as the
layer-by-layer oracle in ``tests/nn_reference.py`` — the GEMM primitives
are shared with it through :mod:`repro.ml.nn.layers`, the mini-batch
shuffling and dropout masks use the same generators, and accumulation
orders are preserved — so logits, fitted weights and loss histories are
bit-identical to it (arbitrated by ``tests/test_nn_engine.py``).

Models containing layer types the engine does not know are rejected at
compile time with :class:`EngineCompileError`; every CommCNN compiles.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import (
    DimensionMismatchError,
    ModelConfigError,
    TrainingDivergedError,
)
from repro.ml.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalMaxPool2D,
    MaxPool2D,
    ReLU,
    conv_forward_gemm,
    conv_grad_cols,
    conv_grad_weight,
    conv_im2col_indices,
)

# Adam's decay rates and denominator guard (Kingma & Ba 2015's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class EngineCompileError(ModelConfigError):
    """The fused engine cannot compile this model (unsupported layer/shape)."""


# ----------------------------------------------------------------- workspaces
class _Slot:
    """A ``(capacity, *shape)`` workspace, allocated once at compile time.

    Training batches and inference blocks both run on leading-axis views of
    it; no call ever reallocates it, so its size is fixed by ``capacity``
    (the classifier's ``batch_size``), not by the largest batch scored.
    """

    __slots__ = ("shape", "array")

    def __init__(self, shape: tuple[int, ...], capacity: int, dtype=np.float64) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.array = np.empty((capacity,) + self.shape, dtype=dtype)

    def view(self, n: int) -> np.ndarray:
        return self.array[:n]


class _ViewSlot:
    """A reshaped alias of another slot (e.g. ``Flatten``); no storage."""

    __slots__ = ("base", "shape")

    def __init__(self, base, shape: tuple[int, ...]) -> None:
        self.base = base
        self.shape = tuple(int(s) for s in shape)

    def view(self, n: int) -> np.ndarray:
        return self.base.view(n).reshape((n,) + self.shape)


# ------------------------------------------------------------------- tape ops
class _ConvOp:
    """``Conv2D`` as gather + GEMM forward, GEMM + bincount-scatter backward."""

    def __init__(
        self,
        engine: "CompiledNetwork",
        layer: Conv2D,
        in_slot,
        in_grad,
        in_shape: tuple[int, int, int],
        needs_input_grad: bool,
    ) -> None:
        channels, height, width = in_shape
        if channels != layer.in_channels:
            raise EngineCompileError(
                f"Conv2D expects {layer.in_channels} input channels, got {channels}"
            )
        if height < layer.kernel_h or width < layer.kernel_w:
            raise EngineCompileError(
                f"input {height}x{width} smaller than kernel "
                f"{layer.kernel_h}x{layer.kernel_w}"
            )
        self.in_slot = in_slot
        self.in_grad = in_grad
        self.needs_input_grad = needs_input_grad
        self.flat_size = channels * height * width
        self.out_h = height - layer.kernel_h + 1
        self.out_w = width - layer.kernel_w + 1
        positions = self.out_h * self.out_w
        k = channels * layer.kernel_h * layer.kernel_w
        # A 1x1 kernel's im2col is the identity: columns are exactly the
        # flattened input, so the gather (and the backward scatter) collapse
        # to reshaped views of the input (and its gradient) buffers.
        self.identity_cols = layer.kernel_h == 1 and layer.kernel_w == 1
        self.gather_idx = conv_im2col_indices(
            channels, height, width, layer.kernel_h, layer.kernel_w
        )
        if self.identity_cols:
            self.cols = _ViewSlot(in_slot, (k, positions))
            self.cols_grad = _ViewSlot(in_grad, (k, positions))
        else:
            self.cols = engine._new_slot((k, positions))
            self.cols_grad = engine._new_slot((k, positions))
            # Per-sample flat scatter targets: sample i writes into block i.
            self.scatter_idx = (
                np.arange(engine.capacity)[:, None, None] * self.flat_size
                + self.gather_idx[None, :, :]
            )
        self.grad_weight_work = engine._new_slot((layer.out_channels, k))
        self.out3 = engine._new_slot((layer.out_channels, positions))
        self.out3_grad = engine._new_slot((layer.out_channels, positions))
        self.out_slot = _ViewSlot(self.out3, (layer.out_channels, self.out_h, self.out_w))
        self.out_grad = _ViewSlot(
            self.out3_grad, (layer.out_channels, self.out_h, self.out_w)
        )
        self.out_shape = (layer.out_channels, self.out_h, self.out_w)
        self.weight = engine._register(layer.weight)
        self.bias = engine._register(layer.bias)
        self.weight_shape = layer.weight.shape

    def forward(self, n: int, training: bool) -> None:
        cols = self.cols.view(n)
        if not self.identity_cols:
            x_flat = self.in_slot.view(n).reshape(n, self.flat_size)
            # mode="clip" skips numpy's bounds-checking slow path; the
            # compile-time index plan is in range by construction, so values
            # are unchanged.
            np.take(x_flat, self.gather_idx, axis=1, out=cols, mode="clip")
        weight_2d = self.weight.value.reshape(self.out3.shape[0], -1)
        conv_forward_gemm(weight_2d, cols, self.bias.value, out=self.out3.view(n))

    def backward(self, n: int) -> None:
        grad_flat = self.out3_grad.view(n)
        cols = self.cols.view(n)
        conv_grad_weight(
            grad_flat,
            cols,
            out=self.weight.grad.reshape(self.grad_weight_work.shape),
            work=self.grad_weight_work.view(n),
        )
        grad_flat.sum(axis=(0, 2), out=self.bias.grad)
        if not self.needs_input_grad:
            return
        weight_2d = self.weight.value.reshape(self.out3.shape[0], -1)
        grad_cols = self.cols_grad.view(n)
        if self.identity_cols:
            # cols_grad aliases in_grad: the GEMM writes the input gradient.
            conv_grad_cols(weight_2d, grad_flat, out=grad_cols)
            return
        conv_grad_cols(weight_2d, grad_flat, out=grad_cols)
        scattered = np.bincount(
            self.scatter_idx[:n].ravel(),
            weights=grad_cols.ravel(),
            minlength=n * self.flat_size,
        )
        self.in_grad.view(n).reshape(n, self.flat_size)[...] = scattered.reshape(
            n, self.flat_size
        )


class _ReLUOp:
    def __init__(self, engine, in_slot, in_grad, shape, needs_input_grad) -> None:
        self.in_slot = in_slot
        self.in_grad = in_grad
        self.needs_input_grad = needs_input_grad
        self.mask = engine._new_slot(shape, dtype=bool)
        self.out_slot = engine._new_slot(shape)
        self.out_grad = engine._new_slot(shape)
        self.out_shape = shape

    def forward(self, n: int, training: bool) -> None:
        x = self.in_slot.view(n)
        mask = self.mask.view(n)
        np.greater(x, 0, out=mask)
        np.multiply(x, mask, out=self.out_slot.view(n))

    def backward(self, n: int) -> None:
        if not self.needs_input_grad:
            return
        np.multiply(self.out_grad.view(n), self.mask.view(n), out=self.in_grad.view(n))


class _MaxPoolOp:
    """Max pooling as one window-gather plus contiguous last-axis max/argmax.

    The gather index plan lays every ``(pool_h, pool_w)`` window out
    contiguously in row-major order — the same element order the oracle's
    window view uses — so the max values and first-max argmax are
    identical; the backward pass scatters each window's gradient through the
    same plan.
    """

    def __init__(self, engine, layer: MaxPool2D, in_slot, in_grad, in_shape, needs_input_grad):
        if len(in_shape) != 3:
            raise EngineCompileError(f"MaxPool2D expects (C, H, W) input, got {in_shape}")
        channels, height, width = in_shape
        self.pool_h = min(layer.pool_h, height)
        self.pool_w = min(layer.pool_w, width)
        self.out_h = height // self.pool_h
        self.out_w = width // self.pool_w
        self.in_shape = in_shape
        self.in_slot = in_slot
        self.in_grad = in_grad
        self.needs_input_grad = needs_input_grad
        self.flat_size = channels * height * width
        self.num_windows = channels * self.out_h * self.out_w
        window = self.pool_h * self.pool_w
        self.window = window
        self.out_shape = (channels, self.out_h, self.out_w)
        self.out_slot = engine._new_slot(self.out_shape)
        self.out_grad = engine._new_slot(self.out_shape)
        self.arg = engine._new_slot((self.num_windows,), dtype=np.intp)
        self.gathered = engine._new_slot((window, self.num_windows))
        self._better = engine._new_slot((self.num_windows,), dtype=bool)
        # (windows, pool_h*pool_w) flat input index per window element.
        rows = (
            np.arange(self.out_h)[:, None] * self.pool_h
            + np.arange(self.pool_h)[None, :]
        )
        columns = (
            np.arange(self.out_w)[:, None] * self.pool_w
            + np.arange(self.pool_w)[None, :]
        )
        spatial = (
            rows[:, None, :, None] * width + columns[None, :, None, :]
        ).reshape(self.out_h * self.out_w, window)
        self.gather_idx = (
            np.arange(channels)[:, None, None] * (height * width) + spatial[None]
        ).reshape(self.num_windows, window)
        # Gather in (window_slot, window) order so each fold step reads one
        # contiguous row of the gathered buffer.
        self.gather_idx_flat = np.ascontiguousarray(self.gather_idx.T).reshape(-1)
        self.window_idx = np.arange(self.num_windows)[None, :]
        self.sample_idx = np.arange(engine.capacity)[:, None]

    def forward(self, n: int, training: bool) -> None:
        # Gathered layout is (n, window_slot, windows): one take, then the
        # max/argmax fold runs `window - 1` full-array elementwise passes
        # instead of numpy's slow tiny-axis reductions.  Max is exact under
        # any order; strict `>` keeps the first-max argmax.
        x_flat = self.in_slot.view(n).reshape(n, self.flat_size)
        gathered = self.gathered.view(n)
        np.take(
            x_flat, self.gather_idx_flat, axis=1, mode="clip",
            out=gathered.reshape(n, -1),
        )
        out = self.out_slot.view(n).reshape(n, self.num_windows)
        out[...] = gathered[:, 0, :]
        if training:
            arg = self.arg.view(n)
            arg[...] = 0
            better = self._better.view(n)
            for slot in range(1, self.window):
                candidate = gathered[:, slot, :]
                np.greater(candidate, out, out=better)
                np.copyto(out, candidate, where=better)
                np.copyto(arg, slot, where=better)
        else:
            for slot in range(1, self.window):
                np.maximum(out, gathered[:, slot, :], out=out)

    def backward(self, n: int) -> None:
        if not self.needs_input_grad:
            return
        arg = self.arg.view(n)
        targets = self.gather_idx[self.window_idx, arg]
        grad_flat = self.in_grad.view(n).reshape(n, self.flat_size)
        grad_flat[...] = 0.0
        grad_flat[self.sample_idx[:n], targets] = self.out_grad.view(n).reshape(
            n, self.num_windows
        )


class _GlobalMaxPoolOp:
    def __init__(self, engine, in_slot, in_grad, in_shape, needs_input_grad):
        if len(in_shape) != 3:
            raise EngineCompileError(
                f"GlobalMaxPool2D expects (C, H, W) input, got {in_shape}"
            )
        channels = in_shape[0]
        self.spatial = in_shape[1] * in_shape[2]
        self.in_slot = in_slot
        self.in_grad = in_grad
        self.needs_input_grad = needs_input_grad
        self.out_shape = (channels,)
        self.out_slot = engine._new_slot(self.out_shape)
        self.out_grad = engine._new_slot(self.out_shape)
        self.arg = engine._new_slot(self.out_shape, dtype=np.intp)
        self.channel_idx = np.arange(channels)[None, :]
        self.sample_idx = np.arange(engine.capacity)[:, None]

    def forward(self, n: int, training: bool) -> None:
        flat = self.in_slot.view(n).reshape(n, self.out_shape[0], self.spatial)
        arg = self.arg.view(n)
        np.argmax(flat, axis=2, out=arg)
        self.out_slot.view(n)[...] = flat[self.sample_idx[:n], self.channel_idx, arg]

    def backward(self, n: int) -> None:
        if not self.needs_input_grad:
            return
        grad_flat = self.in_grad.view(n).reshape(n, self.out_shape[0], self.spatial)
        grad_flat[...] = 0.0
        grad_flat[self.sample_idx[:n], self.channel_idx, self.arg.view(n)] = (
            self.out_grad.view(n)
        )


class _DenseOp:
    def __init__(self, engine, layer: Dense, in_slot, in_grad, in_shape, needs_input_grad):
        if len(in_shape) != 1 or in_shape[0] != layer.weight.shape[0]:
            raise EngineCompileError(
                f"Dense expects ({layer.weight.shape[0]},) input, got {in_shape}"
            )
        self.in_slot = in_slot
        self.in_grad = in_grad
        self.needs_input_grad = needs_input_grad
        self.out_shape = (layer.weight.shape[1],)
        self.out_slot = engine._new_slot(self.out_shape)
        self.out_grad = engine._new_slot(self.out_shape)
        self.weight = engine._register(layer.weight)
        self.bias = engine._register(layer.bias)

    def forward(self, n: int, training: bool) -> None:
        out = self.out_slot.view(n)
        np.matmul(self.in_slot.view(n), self.weight.value, out=out)
        out += self.bias.value

    def backward(self, n: int) -> None:
        grad_out = self.out_grad.view(n)
        np.matmul(self.in_slot.view(n).T, grad_out, out=self.weight.grad)
        grad_out.sum(axis=0, out=self.bias.grad)
        if self.needs_input_grad:
            np.matmul(grad_out, self.weight.value.T, out=self.in_grad.view(n))


class _DropoutOp:
    def __init__(self, engine, layer: Dropout, in_slot, in_grad, shape, needs_input_grad):
        self.rate = layer.rate
        self.rng = layer._rng  # the layer's own stream: fits continue it
        self.shape = shape
        self.in_slot = in_slot
        self.in_grad = in_grad
        self.needs_input_grad = needs_input_grad
        self.mask = engine._new_slot(shape)
        self.out_slot = engine._new_slot(shape)
        self.out_grad = engine._new_slot(shape)
        self.out_shape = shape
        self._masked = False

    def forward(self, n: int, training: bool) -> None:
        x = self.in_slot.view(n)
        if not training or self.rate == 0.0:
            self.out_slot.view(n)[...] = x
            self._masked = False
            return
        keep_prob = 1.0 - self.rate
        mask = self.mask.view(n)
        mask[...] = (self.rng.random((n,) + self.shape) < keep_prob) / keep_prob
        np.multiply(x, mask, out=self.out_slot.view(n))
        self._masked = True

    def backward(self, n: int) -> None:
        if not self.needs_input_grad:
            return
        if self._masked:
            np.multiply(self.out_grad.view(n), self.mask.view(n), out=self.in_grad.view(n))
        else:
            self.in_grad.view(n)[...] = self.out_grad.view(n)


class _ParallelOp:
    """Branch-and-concatenate composite mirroring ``ParallelConcat``."""

    def __init__(self, engine, in_grad, segments, widths, needs_input_grad):
        self.in_grad = in_grad
        self.segments = segments  # (ops, out_slot, out_grad, seg_in_grad)
        self.offsets = np.concatenate([[0], np.cumsum(widths)])
        self.needs_input_grad = needs_input_grad
        total = int(self.offsets[-1])
        self.out_shape = (total,)
        self.out_slot = engine._new_slot(self.out_shape)
        self.out_grad = engine._new_slot(self.out_shape)

    def forward(self, n: int, training: bool) -> None:
        out = self.out_slot.view(n)
        for index, (ops, seg_out, _, _) in enumerate(self.segments):
            for op in ops:
                op.forward(n, training)
            out[:, self.offsets[index] : self.offsets[index + 1]] = seg_out.view(n)

    def backward(self, n: int) -> None:
        grad_out = self.out_grad.view(n)
        accumulated = False
        for index, (ops, _, seg_out_grad, seg_in_grad) in enumerate(self.segments):
            seg_out_grad.view(n)[...] = grad_out[
                :, self.offsets[index] : self.offsets[index + 1]
            ]
            for op in reversed(ops):
                op.backward(n)
            if self.needs_input_grad:
                if not accumulated:
                    self.in_grad.view(n)[...] = seg_in_grad.view(n)
                    accumulated = True
                else:
                    self.in_grad.view(n)[...] += seg_in_grad.view(n)


# ------------------------------------------------------------ parameter packs
class _ParamRef:
    """A parameter's slice of the packed theta/grad vectors."""

    __slots__ = ("source", "offset", "size", "shape", "value", "grad")

    def __init__(self, source: np.ndarray, offset: int) -> None:
        self.source = source
        self.offset = offset
        self.size = source.size
        self.shape = source.shape
        self.value: np.ndarray | None = None
        self.grad: np.ndarray | None = None


class _FusedAdam:
    """Whole-vector Adam on the packed parameter/gradient buffers.

    Elementwise identical to a fresh per-parameter Adam walking the
    parameter list (the oracle's): every parameter steps on every batch, so
    the per-name timesteps all equal the shared timestep.
    """

    def __init__(self, learning_rate: float, engine: "CompiledNetwork") -> None:
        self.learning_rate = learning_rate
        self.engine = engine
        size = engine.theta.size
        self.first_moment = np.zeros(size)
        self.second_moment = np.zeros(size)
        self.step_count = 0
        self._m_hat = np.empty(size)
        self._v_hat = np.empty(size)

    def step(self) -> None:
        theta, grad = self.engine.theta, self.engine.grad
        m, v = self.first_moment, self.second_moment
        self.step_count += 1
        t = self.step_count

        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad

        m_hat, v_hat = self._m_hat, self._v_hat
        np.divide(m, 1.0 - ADAM_BETA1**t, out=m_hat)
        np.divide(v, 1.0 - ADAM_BETA2**t, out=v_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += ADAM_EPSILON
        m_hat *= self.learning_rate
        m_hat /= v_hat
        theta -= m_hat


# ---------------------------------------------------------------- the engine
class CompiledNetwork:
    """A model compiled into a flat tape of shape-specialised array ops.

    Parameters
    ----------
    model:
        A built :class:`Sequential` / :class:`ParallelConcat` tree of the
        supported layer types (everything CommCNN uses).
    input_shape:
        Per-sample input shape (without the batch axis).
    num_classes:
        Expected logits width; checked once at compile time instead of once
        per batch.
    capacity:
        Rows of the one workspace, allocated here and never grown: the
        training mini-batch size, and the most rows one :meth:`forward`
        call accepts.
    """

    def __init__(
        self, model, input_shape: tuple[int, ...], num_classes: int, capacity: int
    ) -> None:
        from repro.ml.nn.network import ParallelConcat, Sequential

        self._sequential_type = Sequential
        self._parallel_type = ParallelConcat
        self.model = model
        self.input_shape = tuple(int(s) for s in input_shape)
        self.num_classes = num_classes
        self.capacity = capacity
        self.slots: list[_Slot] = []
        self.param_refs: list[_ParamRef] = []
        self._param_size = 0

        self.in_slot = self._new_slot(self.input_shape)
        self.in_grad = self._new_slot(self.input_shape)
        self.ops: list = []
        out_slot, out_grad, out_shape = self._compile(
            model, self.in_slot, self.in_grad, self.input_shape, self.ops, False
        )
        if len(out_shape) != 1:
            raise EngineCompileError(
                f"model output must be 2-D (N, classes); got per-sample {out_shape}"
            )
        if out_shape[0] != num_classes:
            raise ModelConfigError(
                f"model emits {out_shape[0]} logits, expected {num_classes}"
            )
        self.logits_slot = out_slot
        self.logits_grad = out_grad

        # Pack parameters/grads into contiguous vectors; verify the packing
        # order matches model.parameters() so write_back pairs each
        # parameter with its own gradient.
        self.theta = np.empty(self._param_size)
        self.grad = np.zeros(self._param_size)
        for ref in self.param_refs:
            ref.value = self.theta[ref.offset : ref.offset + ref.size].reshape(ref.shape)
            ref.grad = self.grad[ref.offset : ref.offset + ref.size].reshape(ref.shape)
        named = model.parameters()
        if len(named) != len(self.param_refs) or any(
            param is not ref.source for (_, param, _), ref in zip(named, self.param_refs)
        ):
            raise EngineCompileError(
                "compiled parameter order disagrees with model.parameters()"
            )
        self._source_grads = [grad for _, _, grad in named]
        self.sync_from_model()

    # ------------------------------------------------------------ compilation
    def _new_slot(self, shape: tuple[int, ...], dtype=np.float64) -> _Slot:
        slot = _Slot(shape, self.capacity, dtype)
        self.slots.append(slot)
        return slot

    def _register(self, param: np.ndarray) -> _ParamRef:
        ref = _ParamRef(param, self._param_size)
        self._param_size += ref.size
        self.param_refs.append(ref)
        return ref

    def _compile(self, layer, in_slot, in_grad, in_shape, ops, needs_input_grad):
        if isinstance(layer, self._sequential_type):
            slot, grad, shape = in_slot, in_grad, in_shape
            for index, child in enumerate(layer.layers):
                slot, grad, shape = self._compile(
                    child, slot, grad, shape, ops, needs_input_grad or index > 0
                )
            return slot, grad, shape
        if isinstance(layer, self._parallel_type):
            segments = []
            widths = []
            for branch in layer.branches:
                seg_ops: list = []
                seg_in_grad = self._new_slot(in_shape)
                seg_out, seg_out_grad, seg_shape = self._compile(
                    branch, in_slot, seg_in_grad, in_shape, seg_ops, needs_input_grad
                )
                if len(seg_shape) != 1:
                    raise EngineCompileError(
                        "every ParallelConcat branch must emit a 2-D output; "
                        f"got per-sample shape {seg_shape}"
                    )
                segments.append((seg_ops, seg_out, seg_out_grad, seg_in_grad))
                widths.append(seg_shape[0])
            op = _ParallelOp(self, in_grad, segments, widths, needs_input_grad)
            ops.append(op)
            return op.out_slot, op.out_grad, op.out_shape
        if isinstance(layer, Conv2D):
            if len(in_shape) != 3:
                raise EngineCompileError(f"Conv2D expects (C, H, W) input, got {in_shape}")
            op = _ConvOp(self, layer, in_slot, in_grad, in_shape, needs_input_grad)
        elif isinstance(layer, ReLU):
            op = _ReLUOp(self, in_slot, in_grad, in_shape, needs_input_grad)
        elif isinstance(layer, MaxPool2D):
            op = _MaxPoolOp(self, layer, in_slot, in_grad, in_shape, needs_input_grad)
        elif isinstance(layer, GlobalMaxPool2D):
            op = _GlobalMaxPoolOp(self, in_slot, in_grad, in_shape, needs_input_grad)
        elif isinstance(layer, Dense):
            op = _DenseOp(self, layer, in_slot, in_grad, in_shape, needs_input_grad)
        elif isinstance(layer, Dropout):
            op = _DropoutOp(self, layer, in_slot, in_grad, in_shape, needs_input_grad)
        elif isinstance(layer, Flatten):
            width = 1
            for dim in in_shape:
                width *= dim
            return (
                _ViewSlot(in_slot, (width,)),
                _ViewSlot(in_grad, (width,)),
                (width,),
            )
        else:
            raise EngineCompileError(
                f"fused engine does not support layer type {type(layer).__name__}"
            )
        ops.append(op)
        return op.out_slot, op.out_grad, op.out_shape

    # -------------------------------------------------------------- execution
    def _run_forward(self, n: int, training: bool) -> None:
        for op in self.ops:
            op.forward(n, training)

    def _run_backward(self, n: int) -> None:
        for op in reversed(self.ops):
            op.backward(n)

    def sync_from_model(self) -> None:
        """Copy the model's current parameter tensors into the packed vector."""
        for ref in self.param_refs:
            ref.value[...] = ref.source

    def write_back(self) -> None:
        """Copy fitted parameters (and last gradients) back to the model."""
        for ref, source_grad in zip(self.param_refs, self._source_grads):
            ref.source[...] = ref.value
            source_grad[...] = ref.grad

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Inference logits for at most ``capacity`` rows of ``X``.

        Bit-identical to the oracle on the same rows.  More rows than
        the workspace holds raise :class:`DimensionMismatchError`; callers
        score larger inputs block by block.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1:] != self.input_shape:
            raise DimensionMismatchError(
                f"expected input of shape (N, {self.input_shape}), got {X.shape}"
            )
        n = X.shape[0]
        if n > self.capacity:
            raise DimensionMismatchError(
                f"{n} rows exceed the engine's capacity of {self.capacity}"
            )
        self.in_slot.view(n)[...] = X
        self._run_forward(n, training=False)
        return self.logits_slot.view(n).copy()

    def train(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int,
        seed: int,
        learning_rate: float,
        loss,
    ) -> list[float]:
        """Mini-batch Adam training in batches of ``capacity`` rows, from the
        model's current weights with zero moments; the oracle's training
        loop, op for op."""
        n_samples = X.shape[0]
        batch_size = self.capacity
        self.sync_from_model()
        stepper = _FusedAdam(learning_rate, self)

        rng = np.random.default_rng(seed)
        history: list[float] = []
        for epoch in range(epochs):
            order = rng.permutation(n_samples)
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, n_samples, batch_size):
                batch_idx = order[start : start + batch_size]
                n = batch_idx.shape[0]
                np.take(X, batch_idx, axis=0, out=self.in_slot.view(n), mode="clip")
                self._run_forward(n, training=True)
                batch_loss = loss.forward(self.logits_slot.view(n), y[batch_idx])
                if not np.isfinite(batch_loss):
                    raise TrainingDivergedError(
                        f"non-finite batch loss ({batch_loss}) in epoch "
                        f"{epoch + 1} of {epochs}; lower the learning "
                        "rate or check the inputs for non-finite values"
                    )
                self.logits_grad.view(n)[...] = loss.backward()
                self._run_backward(n)
                stepper.step()
                epoch_loss += batch_loss
                num_batches += 1
            history.append(epoch_loss / num_batches)
        self.write_back()
        return history
