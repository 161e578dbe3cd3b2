"""CommCNN: the convolutional community classifier of Figure 8.

The model takes the ``k × (|I|+|f|)`` community feature matrix as a single-
channel image and processes it with three kinds of convolution kernels:

* **square** 3×3 kernels followed by two *Square Convolution Modules*
  (3×3 convolution + max pooling) that abstract features to a deeper level,
* a **wide** ``1 × (|I|+|f|)`` kernel that looks at all features of one node
  at a time, followed by a 1×1 convolution and global max pooling, and
* a **long** ``k × 1`` kernel that compares all nodes within one feature
  dimension, also followed by a 1×1 convolution and global max pooling.

The three branch outputs are flattened, concatenated and fed to two fully
connected layers with a softmax output over the relationship types.
"""

from __future__ import annotations

from repro.core.config import CommCNNConfig
from repro.exceptions import ModelConfigError
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
)


def build_commcnn_model(
    k: int,
    num_columns: int,
    num_classes: int,
    config: CommCNNConfig | None = None,
    include_square_branch: bool = True,
    include_wide_branch: bool = True,
    include_long_branch: bool = True,
) -> Sequential:
    """Assemble the CommCNN network of Figure 8.

    Parameters
    ----------
    k:
        Number of rows of the input feature matrix.
    num_columns:
        Number of columns (``|I| + |f|``).
    num_classes:
        Size of the softmax output (``|L|``).
    config:
        CommCNN hyper-parameters.
    include_square_branch / include_wide_branch / include_long_branch:
        Branch toggles used by the kernel-ablation benchmark; the paper's
        model enables all three.
    """
    config = config or CommCNNConfig()
    if k < 1 or num_columns < 1:
        raise ModelConfigError("k and num_columns must be positive")
    if num_classes < 2:
        raise ModelConfigError("num_classes must be >= 2")

    filters = config.num_filters
    seed = config.seed
    branches: list[Sequential] = []
    # Each branch's output width, tracked as it is built; the engine
    # re-derives every shape when it compiles and rejects a Dense layer of
    # the wrong input width.
    branch_widths: list[int] = []

    if include_square_branch:
        square_layers: list = [
            Conv2D(1, filters, (min(3, k), min(3, num_columns)), seed=seed),
            ReLU(),
        ]
        # Two "Square Convolution Modules": 3x3 convolution + max pooling,
        # degrading gracefully when the feature map becomes too small.
        height = k - min(3, k) + 1
        width = num_columns - min(3, num_columns) + 1
        for module_index in range(2):
            kernel_h = min(3, height)
            kernel_w = min(3, width)
            if kernel_h < 1 or kernel_w < 1 or height < 1 or width < 1:
                break
            square_layers.extend(
                [
                    Conv2D(filters, filters, (kernel_h, kernel_w), seed=seed + module_index + 1),
                    ReLU(),
                    MaxPool2D((2, 2)),
                ]
            )
            height = max(1, (height - kernel_h + 1) // 2)
            width = max(1, (width - kernel_w + 1) // 2)
        square_layers.append(Flatten())
        branches.append(Sequential(square_layers))
        branch_widths.append(filters * height * width)

    if include_wide_branch:
        branches.append(
            Sequential(
                [
                    Conv2D(1, filters, (1, num_columns), seed=seed + 10),
                    ReLU(),
                    Conv2D(filters, filters, (1, 1), seed=seed + 11),
                    ReLU(),
                    GlobalMaxPool2D(),
                ]
            )
        )
        branch_widths.append(filters)

    if include_long_branch:
        branches.append(
            Sequential(
                [
                    Conv2D(1, filters, (k, 1), seed=seed + 20),
                    ReLU(),
                    Conv2D(filters, filters, (1, 1), seed=seed + 21),
                    ReLU(),
                    GlobalMaxPool2D(),
                ]
            )
        )
        branch_widths.append(filters)

    if not branches:
        raise ModelConfigError("at least one CommCNN branch must be enabled")

    head: list = [
        ParallelConcat(branches),
        Dense(sum(branch_widths), config.dense_units, seed=seed + 30),
        ReLU(),
    ]
    if config.dropout != 0.0:  # Dropout rejects a rate outside [0, 1)
        head.append(Dropout(config.dropout, seed=seed + 31))
    head.extend(
        [
            Dense(config.dense_units, max(config.dense_units // 2, num_classes), seed=seed + 32),
            ReLU(),
            Dense(max(config.dense_units // 2, num_classes), num_classes, seed=seed + 33),
        ]
    )
    return Sequential(head)


def build_commcnn_classifier(
    k: int,
    num_columns: int,
    num_classes: int,
    config: CommCNNConfig | None = None,
    **branch_toggles: bool,
) -> NeuralNetworkClassifier:
    """Build a trainable CommCNN classifier (model + loss + Adam trainer)."""
    config = config or CommCNNConfig()
    model = build_commcnn_model(
        k=k,
        num_columns=num_columns,
        num_classes=num_classes,
        config=config,
        **branch_toggles,
    )
    return NeuralNetworkClassifier(
        model,
        num_classes=num_classes,
        epochs=config.epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        seed=config.seed,
    )
