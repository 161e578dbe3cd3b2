"""Train/test index splitting."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import DimensionMismatchError, ModelConfigError


def train_test_split_indices(
    num_samples: int,
    test_fraction: float = 0.2,
    seed: int | None = 0,
    stratify: Sequence[int] | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``range(num_samples)`` into train and test index arrays.

    Parameters
    ----------
    num_samples:
        Total number of samples.
    test_fraction:
        Fraction of samples assigned to the test split.
    seed:
        RNG seed for the shuffle.
    stratify:
        Optional label vector; when given, each class is split separately so
        the class mix is preserved (the paper's 80/20 splits are stratified
        in effect because the survey data is large).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ModelConfigError("test_fraction must be in (0, 1)")
    if num_samples <= 1:
        raise ModelConfigError("need at least two samples to split")
    rng = np.random.default_rng(seed)

    if stratify is None:
        order = rng.permutation(num_samples)
        cut = max(1, int(round(num_samples * test_fraction)))
        cut = min(cut, num_samples - 1)
        return np.sort(order[cut:]), np.sort(order[:cut])

    stratify = np.asarray(stratify)
    if stratify.shape[0] != num_samples:
        raise DimensionMismatchError(
            f"stratify has {stratify.shape[0]} entries for {num_samples} samples"
        )
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for label in np.unique(stratify):
        indices = np.flatnonzero(stratify == label)
        order = rng.permutation(indices)
        cut = int(round(len(indices) * test_fraction))
        if len(indices) > 1:
            cut = min(max(cut, 1), len(indices) - 1)
        test_parts.append(order[:cut])
        train_parts.append(order[cut:])
    return (
        np.sort(np.concatenate(train_parts)).astype(np.int64, copy=False),
        np.sort(np.concatenate(test_parts)).astype(np.int64, copy=False),
    )
