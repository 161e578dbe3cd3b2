"""The recursive, one-tree-at-a-time histogram grower: the hist oracle.

This is the grower :mod:`repro.ml.hist` used before growth became
level-wise and class-batched, kept verbatim in its arithmetic: a node is
built, its histogram accumulated (or derived parent-minus-sibling) and its
best split searched before its left subtree is grown, then its right, and
a leaf is numbered as it is made.  :func:`reference_tree_fit` grows one
tree and :func:`reference_boosted_fit` boosts them one tree at a time, the
way the product fitted before a round's trees grew together, so
``tests/test_ml_hist.py`` can hold the product grower to it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import one_hot, softmax
from repro.ml.hist import BinnedDataset


@dataclass
class Node:
    """A node of a reference tree; ``feature is None`` marks a leaf."""

    value: float
    feature: int | None = None
    threshold: float = 0.0
    leaf_id: int = -1
    left: "Node | None" = None
    right: "Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class ReferenceHistTreeGrower:
    """Grows one regression tree node by node, recursively, left first."""

    def __init__(self, binned, gradients, hessians, config) -> None:
        self.binned = binned
        self.gradients = gradients
        self.hessians = hessians
        self.config = config
        width = binned.hist_width
        self._width = width
        self._offsets = np.arange(binned.num_features, dtype=np.int64) * width
        self._total = binned.num_features * width
        self._boundary_ok = (
            np.arange(width - 1)[None, :] < (binned.num_bins - 1)[:, None]
        )
        self.num_passes = 0
        self.num_leaves = 0
        self.values = np.empty(binned.codes.shape[0])

    def accumulate(self, indices):
        """Count/gradient/hessian histograms of ``indices`` (one pass)."""
        self.num_passes += 1
        codes = self.binned.codes[indices]
        flat = (codes + self._offsets).ravel()
        shape = (self.binned.num_features, self._width)
        counts = np.bincount(flat, minlength=self._total).reshape(shape)
        grad_weights = np.broadcast_to(
            self.gradients[indices][:, None], codes.shape
        ).ravel()
        hess_weights = np.broadcast_to(
            self.hessians[indices][:, None], codes.shape
        ).ravel()
        grads = np.bincount(flat, weights=grad_weights, minlength=self._total)
        hessians = np.bincount(flat, weights=hess_weights, minlength=self._total)
        return counts, grads.reshape(shape), hessians.reshape(shape)

    def best_split(self, hist, grad_sum, hess_sum, num_rows):
        if self._width < 2:
            return None
        counts, grads, hessians = hist
        config = self.config
        lam = config.reg_lambda
        parent_score = grad_sum * grad_sum / (hess_sum + lam)
        count_left = np.cumsum(counts, axis=1)[:, :-1]
        grad_left = np.cumsum(grads, axis=1)[:, :-1]
        hess_left = np.cumsum(hessians, axis=1)[:, :-1]
        grad_right = grad_sum - grad_left
        hess_right = hess_sum - hess_left
        with np.errstate(invalid="ignore", divide="ignore"):
            gains = (
                0.5
                * (
                    grad_left * grad_left / (hess_left + lam)
                    + grad_right * grad_right / (hess_right + lam)
                    - parent_score
                )
                - config.gamma
            )
        valid = (
            self._boundary_ok
            & (count_left >= config.min_samples_leaf)
            & (num_rows - count_left >= config.min_samples_leaf)
        )
        gains = np.where(valid & ~np.isnan(gains), gains, -np.inf)
        flat_best = int(np.argmax(gains))
        gain = gains.ravel()[flat_best]
        if not gain > config.min_gain:
            return None
        return divmod(flat_best, self._width - 1)

    def grow(self):
        """The root of the tree over all rows."""
        return self._build(np.arange(self.binned.codes.shape[0]), depth=0, hist=None)

    def _leaf(self, node, indices):
        self.values[indices] = node.value
        node.leaf_id = self.num_leaves
        self.num_leaves += 1
        return node

    def _build(self, indices, depth, hist):
        config = self.config
        grad_sum = self.gradients[indices].sum()
        hess_sum = self.hessians[indices].sum()
        node = Node(float(-grad_sum / (hess_sum + config.reg_lambda)))
        if depth >= config.max_depth or indices.size < 2 * config.min_samples_leaf:
            return self._leaf(node, indices)
        if hist is None:
            hist = self.accumulate(indices)
        split = self.best_split(hist, grad_sum, hess_sum, indices.size)
        if split is None:
            return self._leaf(node, indices)
        feature, boundary = split
        node.feature = feature
        node.threshold = self.binned.boundary_threshold(
            feature, boundary, hist[0][feature]
        )
        go_left = self.binned.codes[indices, feature] <= boundary
        left_idx = indices[go_left]
        right_idx = indices[~go_left]

        def needs_hist(child_indices):
            return (
                depth + 1 < config.max_depth
                and child_indices.size >= 2 * config.min_samples_leaf
            )

        left_hist = right_hist = None
        need_left, need_right = needs_hist(left_idx), needs_hist(right_idx)
        if need_left or need_right:
            left_is_small = left_idx.size <= right_idx.size
            small_idx = left_idx if left_is_small else right_idx
            small_hist = self.accumulate(small_idx)
            big_hist = tuple(parent - small for parent, small in zip(hist, small_hist))
            left_hist, right_hist = (
                (small_hist, big_hist) if left_is_small else (big_hist, small_hist)
            )
            if not need_left:
                left_hist = None
            if not need_right:
                right_hist = None
        node.left = self._build(left_idx, depth + 1, left_hist)
        node.right = self._build(right_idx, depth + 1, right_hist)
        return node


def reference_tree_fit(config, X, gradients, hessians, binned=None):
    """Grow one tree with the reference grower.

    Returns its root, the training rows' leaf values and the grower's pass
    count.
    """
    if binned is None:
        binned = BinnedDataset.from_matrix(np.asarray(X, dtype=np.float64), config.max_bins)
    grower = ReferenceHistTreeGrower(binned, gradients, hessians, config)
    root = grower.grow()
    return root, grower.values, grower.num_passes


def reference_boosted_fit(model, X, y):
    """A boosted fit on the histogram search, one tree at a time with the
    reference grower and two softmaxes a round; ``model`` supplies the
    hyper-parameters.

    Returns ``(roots, train_leaf_values, train_loss_history, passes)``,
    ``roots`` round-major (round 0's class trees, then round 1's, ...).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    num_classes = model.num_classes or int(y.max()) + 1
    targets = one_hot(y, num_classes)
    priors = np.clip(targets.mean(axis=0), 1e-6, 1.0)
    raw_scores = np.tile(np.log(priors), (X.shape[0], 1))
    binned = BinnedDataset.from_matrix(X, model.tree_config.max_bins)
    roots, history, passes = [], [], 0
    leaf_values = np.empty((X.shape[0], model.num_rounds * num_classes))
    for round_index in range(model.num_rounds):
        probabilities = softmax(raw_scores)
        gradients = probabilities - targets
        hessians = probabilities * (1.0 - probabilities)
        for class_index in range(num_classes):
            root, values, tree_passes = reference_tree_fit(
                model.tree_config,
                X,
                gradients[:, class_index],
                hessians[:, class_index],
                binned=binned,
            )
            passes += tree_passes
            leaf_values[:, round_index * num_classes + class_index] = values
            raw_scores[:, class_index] += model.learning_rate * values
            roots.append(root)
        history.append(
            -float(
                np.mean(
                    np.sum(
                        targets * np.log(np.clip(softmax(raw_scores), 1e-12, 1.0)),
                        axis=1,
                    )
                )
            )
        )
    return roots, leaf_values, history, passes
