"""Regression trees and the one stacked forest of the GBDT model layer.

A tree is fitted to per-sample gradients and hessians of the boosting
objective, exactly as in the XGBoost formulation: a split's gain is

``0.5 * (G_L²/(H_L+λ) + G_R²/(H_R+λ) - G²/(H+λ)) - γ``

and the optimal leaf weight is ``-G/(H+λ)``.  Every grown tree is
flattened into struct-of-arrays form, and every inference question is
answered with batched level-wise traversal:

* :class:`TreeTensor` — one grown tree as parallel ``feature``/
  ``threshold``/``left``/``right``/``value``/``leaf_id`` arrays, in
  left-first preorder.  ``feature[i] < 0`` marks a leaf.
* :class:`ForestTensor` — every tree of a boosted ensemble concatenated into
  one node pool with per-tree root offsets.  One traversal sweep moves all
  ``rows x trees`` cursors together, so the raw scores and the leaf-value
  embedding of all rounds x classes are a single batched walk.
* :class:`FeaturePresort` + :func:`best_split_array` + :func:`grow_exact` —
  the exact greedy growth, XGBoost-style: every feature is sorted **once
  per fit** into integer rank codes, and a node searches all its features
  in one pass (one radix ``argsort`` of the codes, one 2-D ``cumsum``, one
  masked gain matrix, one ``argmax``) instead of re-sorting a float column
  per feature per node.  The histogram growth is :mod:`repro.ml.hist`.

Parity contract: these kernels execute the same float64 operations in the
same order as the oracle in ``tests/exact_reference.py`` — a scalar
per-feature, per-position split scan and row-by-row pointer walks with
sequential per-tree score accumulation — so fitted trees and all
predictions are **bit-identical** to it; the randomized suite in
``tests/test_ml_forest.py`` arbitrates, exactly as the graph parity suites
do for Phases I and II.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelConfigError


@dataclass
class _TreeNode:
    """A node of a tree under growth; :meth:`TreeTensor.from_root`
    flattens it once the tree is grown."""

    depth: int
    value: float = 0.0
    feature: int | None = None
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None


def leaf_weight(grad_sum: float, hess_sum: float, reg_lambda: float) -> float:
    """The Newton-optimal weight ``-G / (H + λ)`` of a node's rows."""
    return float(-grad_sum / (hess_sum + reg_lambda))


@dataclass
class RegressionTreeConfig:
    """Hyper-parameters of every tree of a boosted fit."""

    max_depth: int = 3
    min_samples_leaf: int = 2
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_gain: float = 1e-7
    max_bins: int = 256
    """Histogram resolution of :mod:`repro.ml.hist`: features with at most
    this many distinct values are binned exactly (splits identical to the
    exact search), wider features snap to quantile bin edges."""

    def validate(self) -> None:
        if self.max_depth < 1:
            raise ModelConfigError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ModelConfigError("min_samples_leaf must be >= 1")
        if self.reg_lambda < 0:
            raise ModelConfigError("reg_lambda must be non-negative")
        if self.max_bins < 2:
            raise ModelConfigError("max_bins must be >= 2")


class TreeTensor:
    """A grown regression tree flattened to struct-of-arrays form.

    ``feature[i] >= 0`` marks an internal node splitting on that feature at
    ``threshold[i]`` with children ``left[i]``/``right[i]``; ``feature[i] < 0``
    marks a leaf carrying ``value[i]`` and ``leaf_id[i]``.  Slot 0 is always
    the root.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "leaf_id")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        leaf_id: np.ndarray,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.leaf_id = leaf_id

    @classmethod
    def from_root(cls, root: _TreeNode) -> "TreeTensor":
        """Flatten a grown tree: left-first preorder, root at slot 0, leaves
        numbered ``0, 1, ...`` in that order (by an explicit stack, so a
        chain deeper than the recursion limit flattens too)."""
        order = []
        stack = [root]
        while stack:
            node = stack.pop()
            order.append(node)
            if node.feature is not None:
                stack.append(node.right)
                stack.append(node.left)
        slot = {id(node): position for position, node in enumerate(order)}
        count = len(order)
        feature = np.full(count, -1, dtype=np.int64)
        threshold = np.zeros(count, dtype=np.float64)
        left = np.zeros(count, dtype=np.int64)
        right = np.zeros(count, dtype=np.int64)
        value = np.zeros(count, dtype=np.float64)
        leaf_id = np.full(count, -1, dtype=np.int64)
        num_leaves = 0
        for position, node in enumerate(order):
            value[position] = node.value
            if node.feature is None:
                leaf_id[position] = num_leaves
                num_leaves += 1
            else:
                feature[position] = node.feature
                threshold[position] = node.threshold
                left[position] = slot[id(node.left)]
                right[position] = slot[id(node.right)]
        return cls(feature, threshold, left, right, value, leaf_id)

    @property
    def num_nodes(self) -> int:
        return int(self.feature.size)


class ForestTensor:
    """All trees of a boosted ensemble packed into one stacked node pool.

    Tree ``t`` occupies slots ``indptr[t]:indptr[t + 1]`` with its root at
    ``indptr[t]``; ``left``/``right`` hold absolute pool slots, so one
    ``(rows, trees)`` cursor matrix traverses every tree of every round in
    lockstep.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "leaf_id", "roots")

    def __init__(self, tensors: list[TreeTensor]) -> None:
        sizes = np.fromiter(
            (tensor.num_nodes for tensor in tensors), dtype=np.int64, count=len(tensors)
        )
        indptr = np.zeros(len(tensors) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        self.roots = indptr[:-1]
        self.feature = np.concatenate([tensor.feature for tensor in tensors])
        self.threshold = np.concatenate([tensor.threshold for tensor in tensors])
        self.left = np.concatenate(
            [tensor.left + offset for tensor, offset in zip(tensors, self.roots)]
        )
        self.right = np.concatenate(
            [tensor.right + offset for tensor, offset in zip(tensors, self.roots)]
        )
        self.value = np.concatenate([tensor.value for tensor in tensors])
        self.leaf_id = np.concatenate([tensor.leaf_id for tensor in tensors])

    @property
    def num_trees(self) -> int:
        return int(self.roots.size)

    def leaf_slots(self, X: np.ndarray) -> np.ndarray:
        """``(rows, trees)`` pool slots of the leaves all cursors land on."""
        num_rows = X.shape[0]
        position = np.broadcast_to(self.roots, (num_rows, self.num_trees)).copy()
        row = np.arange(num_rows)[:, None]
        while True:
            feature = self.feature[position]
            internal = feature >= 0
            if not internal.any():
                return position
            # A leaf's feature is -1: it reads the last column, and its
            # cursor stays where it is.
            go_left = X[row, feature] <= self.threshold[position]
            child = np.where(go_left, self.left[position], self.right[position])
            np.copyto(position, child, where=internal)

    def leaf_values_matrix(self, X: np.ndarray) -> np.ndarray:
        """``(rows, trees)`` leaf-weight matrix — the LoCEC-XGB embedding."""
        return self.value[self.leaf_slots(X)]


def split_threshold(lo: float, hi: float) -> float:
    """The threshold of a split between adjacent present values ``lo < hi``.

    The midpoint, unless it rounds up to ``hi`` — which can happen only when
    ``lo`` and ``hi`` are adjacent doubles — in which case ``lo``
    (scikit-learn's rule).  Inference sends ``x <= threshold`` left, so either way every
    training row lands in the leaf it was grown into.
    """
    threshold = float(0.5 * (lo + hi))
    return float(lo) if threshold == hi else threshold


FOLD_BLOCK_ROWS = 512
""":func:`boosted_scores` folds this many rows at a time, so its working
block stays a fixed size however many rows are scored."""


def boosted_scores(
    leaf_values: np.ndarray,
    base_score: np.ndarray,
    learning_rate: float,
    num_classes: int,
) -> np.ndarray:
    """Raw boosted scores from a ``(rows, trees)`` leaf-weight matrix.

    Each class's score is ``base_score + lr·v_0 + lr·v_1 + ...`` over its
    trees in round order, added strictly left to right: one
    ``np.add.accumulate`` along the round axis of a ``(rows, rounds + 1,
    classes)`` block whose slot 0 holds ``base_score``, in blocks of
    :data:`FOLD_BLOCK_ROWS` rows.  ``accumulate`` adds in sequence, so every
    score sees the float additions of the oracle's per-tree loop
    (``tests/exact_reference.py``) in its order, bit for bit
    (``np.add.reduce`` does not promise that order).  A caller that already
    holds the leaf-value embedding gets the scores without a second forest
    walk; a zero ``base_score`` at rate 1 is the plain per-class sum.
    """
    num_rows = leaf_values.shape[0]
    num_rounds = leaf_values.shape[1] // num_classes
    scores = np.empty((num_rows, num_classes))
    block = np.empty((min(num_rows, FOLD_BLOCK_ROWS), num_rounds + 1, num_classes))
    for start in range(0, num_rows, FOLD_BLOCK_ROWS):
        fold = block[: min(FOLD_BLOCK_ROWS, num_rows - start)]
        stop = start + len(fold)
        fold[:, 0] = base_score
        rounds = leaf_values[start:stop].reshape(len(fold), num_rounds, num_classes)
        np.multiply(rounds, learning_rate, out=fold[:, 1:])
        np.add.accumulate(fold, axis=1, out=fold)
        scores[start:stop] = fold[:, -1]
    return scores


class FeaturePresort:
    """A feature matrix sorted **once per fit** for the exact split search.

    The exact twin of :class:`repro.ml.hist.BinnedDataset`: built by
    :meth:`GradientBoostedClassifier.fit <repro.ml.gbdt.GradientBoostedClassifier.fit>`
    before the first round and shared by every node of every tree, so no node ever sorts a float column again.

    Attributes
    ----------
    columns:
        ``(features, rows)`` float64 — ``X.T``, feature-major so one node
        reads every feature of its rows with a single gather.
    codes:
        ``(features, rows)`` unsigned rank codes, order-preserving per
        feature: ``codes[f, i] < codes[f, j]`` iff ``X[i, f] < X[j, f]`` and
        equal values (``-0.0`` and ``0.0`` included) share a code, so a
        stable sort of a node's codes is the stable sort of its values.  The
        dtype is the narrowest that holds ``rows - 1`` — at most ``uint16``
        up to 65,536 rows, which NumPy's stable ``argsort`` radix-sorts.

    ``X`` must be finite (:class:`~repro.ml.gbdt.GradientBoostedClassifier`
    rejects anything else before building one): NaNs get one code each and
    would order differently from the oracle's value sort.
    """

    __slots__ = ("columns", "codes", "row_starts")

    def __init__(self, columns: np.ndarray, codes: np.ndarray) -> None:
        self.columns = columns
        self.codes = codes
        # Where each feature's row starts in the flattened (C-contiguous)
        # arrays: `codes.take(rows + row_starts)` gathers per feature several
        # times faster than the 2-D fancy index `codes[features, rows]`.
        self.row_starts = (np.arange(codes.shape[0]) * codes.shape[1])[:, None]

    @classmethod
    def from_matrix(cls, X: np.ndarray) -> "FeaturePresort":
        """Sort every column of ``X`` once and rank-code it."""
        columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
        order = np.argsort(columns, axis=1, kind="stable")
        ranked = np.take_along_axis(columns, order, axis=1)
        # A value's code is the number of strict increases before it in
        # sorted order, i.e. its rank among the column's distinct values.
        ranks = np.zeros(columns.shape, dtype=np.intp)
        np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=ranks[:, 1:])
        codes = np.empty(columns.shape, dtype=np.min_scalar_type(max(columns.shape[1] - 1, 0)))
        np.put_along_axis(codes, order, ranks, axis=1)
        return cls(columns, codes)


def best_split_array(
    presort: FeaturePresort,
    gradients: np.ndarray,
    hessians: np.ndarray,
    indices: np.ndarray,
    grad_sum: float,
    hess_sum: float,
    config,
) -> tuple[int, float, np.ndarray, np.ndarray] | None:
    """Vectorized exact greedy split search.

    One pass per node over **all** features: a stable ``argsort`` of the
    node's ``(features, rows)`` rank codes (a radix sort while the codes are
    at most 16-bit — the float columns were sorted once, in
    :meth:`FeaturePresort.from_matrix`), one 2-D ``cumsum`` each of the
    gradients and hessians, one gain matrix, then the first feature attaining
    the overall maximum and the first position attaining it there — no
    Python loop over features or split positions.  Equal codes are equal values, so
    the stable order (ties keep the order of ``indices``), the sequential
    float additions behind every cumulative sum, the per-position gain
    arithmetic and the first-strict-maximum winner are exactly those of the
    scalar scan in ``tests/exact_reference.py``: the chosen splits (and
    therefore the fitted trees) are bit-identical.  Working memory is a handful of
    ``(features, rows)`` temporaries per node.
    """
    lam = config.reg_lambda
    parent_score = grad_sum * grad_sum / (hess_sum + lam)
    low = config.min_samples_leaf - 1
    high = indices.size - config.min_samples_leaf
    if high <= low or not presort.codes.shape[0]:
        return None

    order = np.argsort(presort.codes.take(indices, axis=1), axis=1, kind="stable")
    sorted_idx = indices[order]
    sorted_codes = presort.codes.take(sorted_idx + presort.row_starts)

    grad_left = np.cumsum(gradients[sorted_idx], axis=1)[:, low:high]
    hess_left = np.cumsum(hessians[sorted_idx], axis=1)[:, low:high]
    grad_right = grad_sum - grad_left
    hess_right = hess_sum - hess_left
    gains = (
        0.5
        * (
            grad_left * grad_left / (hess_left + lam)
            + grad_right * grad_right / (hess_right + lam)
            - parent_score
        )
        - config.gamma
    )
    # Cannot split between equal feature values; NaN gains (possible only
    # with a zero-hessian, zero-lambda corner) lose every strict `>`
    # comparison of the scalar scan, so they are masked out identically.
    splittable = sorted_codes[:, low:high] != sorted_codes[:, low + 1 : high + 1]
    gains = np.where(splittable & ~np.isnan(gains), gains, -np.inf)

    feature_gains = gains.max(axis=1)
    feature = int(np.argmax(feature_gains))
    if not feature_gains[feature] > config.min_gain:
        return None
    position = low + int(np.argmax(gains[feature]))
    rows = sorted_idx[feature]
    values = presort.columns[feature]
    threshold = split_threshold(values[rows[position]], values[rows[position + 1]])
    # Copies, so the children do not pin this node's (features, rows) matrix.
    return feature, threshold, rows[: position + 1].copy(), rows[position + 1 :].copy()


def grow_exact(
    presort: FeaturePresort,
    gradients: np.ndarray,
    hessians: np.ndarray,
    config: RegressionTreeConfig,
) -> tuple[TreeTensor, np.ndarray]:
    """Grow one tree on ``presort``'s rows by :func:`best_split_array`,
    recursively, left subtree first; return it flattened, and the leaf
    value of every training row.

    A leaf records its value for its rows as it is made.  Split thresholds
    follow :func:`split_threshold`, so walking the tree routes each training
    row into the leaf it was grown into, and the recorded values equal the
    tree's predictions of the training rows bit for bit.
    """
    values = np.empty(gradients.shape[0], dtype=np.float64)

    def build(indices: np.ndarray, depth: int) -> _TreeNode:
        grad_sum = gradients[indices].sum()
        hess_sum = hessians[indices].sum()
        node = _TreeNode(depth, leaf_weight(grad_sum, hess_sum, config.reg_lambda))
        split = None
        if depth < config.max_depth and len(indices) >= 2 * config.min_samples_leaf:
            split = best_split_array(
                presort, gradients, hessians, indices, grad_sum, hess_sum, config
            )
        if split is None:
            values[indices] = node.value
            return node
        node.feature, node.threshold, left_idx, right_idx = split
        node.left = build(left_idx, depth + 1)
        node.right = build(right_idx, depth + 1)
        return node

    root = build(np.arange(gradients.shape[0]), 0)
    return TreeTensor.from_root(root), values
