"""From-scratch NumPy neural-network stack used to build CommCNN.

The layers (:mod:`repro.ml.nn.layers`) and containers
(:mod:`repro.ml.nn.network`) are specifications: hyper-parameters and
weights.  :class:`NeuralNetworkClassifier` runs them on one executor, the
compiled engine of :mod:`repro.ml.nn.engine`: the model is compiled once
per fit into a flat tape of shape-specialised array ops with precomputed
im2col gather/scatter index plans, one ``batch_size``-row
activation/gradient workspace reused by every mini-batch and inference
block, and all parameters/gradients/Adam moments packed into contiguous
vectors so an Adam step is a handful of whole-vector ops.  A model the
engine cannot compile raises
:class:`~repro.ml.nn.engine.EngineCompileError`; every CommCNN compiles.

The layer-by-layer oracle — every layer's ``forward`` / ``backward`` on
freshly allocated tensors and a per-parameter Adam — is
``tests/nn_reference.py``; the tape's logits, fitted weights and loss
histories are bit-identical to it (``tests/test_nn_engine.py``
arbitrates).  Scoring runs in padded blocks of exactly ``batch_size``
rows, so a row's probabilities do not depend on the rows sharing its
``predict_proba`` call.
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
from repro.ml.nn.network import NeuralNetworkClassifier, ParallelConcat, Sequential

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
]
