"""From-scratch NumPy CommCNN (Figure 8 of the paper).

:class:`~repro.ml.nn.network.NeuralNetworkClassifier` is the one network:
square, wide and long convolution branches, a dense head and a softmax,
written once as straight-line forward and backward passes over buffers of
``batch_size`` rows, with all parameters and gradients packed into two
vectors so an Adam step is a handful of whole-vector ops.  Scoring runs in
padded blocks of exactly ``batch_size`` rows, so a row's probabilities do
not depend on the rows sharing its ``predict_proba`` call.

The layer-by-layer oracle — its own layer specifications, each running
``forward`` / ``backward`` on freshly allocated tensors, and a per-name
Adam — is ``tests/nn_reference.py``; the network's fitted weights,
gradients, loss histories and probabilities are bit-identical to it
(``tests/test_nn_engine.py`` arbitrates).
"""

from repro.ml.nn.losses import SoftmaxCrossEntropy
from repro.ml.nn.network import NeuralNetworkClassifier

__all__ = ["SoftmaxCrossEntropy", "NeuralNetworkClassifier"]
