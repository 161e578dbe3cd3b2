"""CommCNN's hyper-parameters mapped onto the network of Figure 8.

The network itself — square, wide and long convolution branches, a dense
head and a softmax — is :class:`repro.ml.nn.network.NeuralNetworkClassifier`.
"""

from __future__ import annotations

from repro.core.config import CommCNNConfig
from repro.ml.nn import NeuralNetworkClassifier


def build_commcnn_classifier(
    k: int,
    num_columns: int,
    num_classes: int,
    config: CommCNNConfig | None = None,
    **branch_toggles: bool,
) -> NeuralNetworkClassifier:
    """Build a trainable CommCNN classifier for ``(N, 1, k, num_columns)``
    inputs; ``branch_toggles`` (``include_square_branch`` etc.) serve the
    kernel ablation, and the paper's model enables all three branches."""
    config = config or CommCNNConfig()
    return NeuralNetworkClassifier(
        k,
        num_columns,
        num_classes,
        num_filters=config.num_filters,
        dense_units=config.dense_units,
        dropout=config.dropout,
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        seed=config.seed,
        **branch_toggles,
    )
