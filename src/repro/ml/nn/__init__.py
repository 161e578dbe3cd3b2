"""From-scratch NumPy neural-network stack used to build CommCNN.

The stack executes on one of two backends, selected by the ``backend`` knob
on :class:`NeuralNetworkClassifier` (``"fused"`` / ``"loop"``):

* **fused** (the default) — the compiled execution engine in
  :mod:`repro.ml.nn.engine`: the model is compiled once per fit into a flat
  tape of shape-specialised array ops with precomputed im2col
  gather/scatter index plans, one ``batch_size``-row activation/gradient
  workspace reused by every mini-batch and inference block, and all
  parameters/gradients/Adam moments packed into contiguous vectors so an
  Adam step is a handful of whole-vector ops.  A model the engine cannot
  compile raises :class:`~repro.ml.nn.engine.EngineCompileError`; every
  CommCNN compiles.
* **loop** — the layer-by-layer object graph in :mod:`repro.ml.nn.layers` /
  :mod:`repro.ml.nn.network`: each layer's ``forward``/``backward`` allocates
  its own tensors and :class:`Adam` walks the ``(name, param, grad)`` list.
  This is the readable reference implementation, kept as the oracle.

Both backends run the same float operations in the same order, so logits,
fitted weights and loss histories are **bit-identical**
(``tests/test_nn_engine.py`` arbitrates).  Both score in padded blocks of
exactly ``batch_size`` rows, so a row's probabilities do not depend on the
rows sharing its ``predict_proba`` call.
"""

from repro.ml.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalMaxPool2D,
    Layer,
    MaxPool2D,
    ReLU,
)
from repro.ml.nn.losses import SoftmaxCrossEntropy
from repro.ml.nn.engine import CompiledNetwork, EngineCompileError
from repro.ml.nn.network import (
    NN_BACKENDS,
    NeuralNetworkClassifier,
    ParallelConcat,
    Sequential,
)
from repro.ml.nn.optimizers import Adam

__all__ = [
    "Layer",
    "Conv2D",
    "Dense",
    "Dropout",
    "Flatten",
    "GlobalMaxPool2D",
    "MaxPool2D",
    "ReLU",
    "SoftmaxCrossEntropy",
    "Sequential",
    "ParallelConcat",
    "NeuralNetworkClassifier",
    "CompiledNetwork",
    "EngineCompileError",
    "NN_BACKENDS",
    "Adam",
]
