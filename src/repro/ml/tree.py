"""CART-style regression trees with second-order (Newton) split gain.

These trees are the weak learners inside :class:`repro.ml.gbdt.GradientBoostedClassifier`.
Each tree is fitted to per-sample gradients and hessians of the boosting
objective, exactly as in the XGBoost formulation: a split's gain is

``0.5 * (G_L²/(H_L+λ) + G_R²/(H_R+λ) - G²/(H+λ)) - γ``

and the optimal leaf weight is ``-G/(H+λ)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DimensionMismatchError, ModelConfigError, NotFittedError
from repro.ml.forest import (
    FeaturePresort,
    TreeTensor,
    best_split_array,
    resolve_ml_backend,
    split_threshold,
)


@dataclass
class _TreeNode:
    """A node of the regression tree (internal or leaf)."""

    depth: int
    value: float = 0.0
    leaf_id: int = -1
    feature: int | None = None
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def leaf_weight(grad_sum: float, hess_sum: float, reg_lambda: float) -> float:
    """The Newton-optimal weight ``-G / (H + λ)`` of a node's rows."""
    return float(-grad_sum / (hess_sum + reg_lambda))


@dataclass
class RegressionTreeConfig:
    """Hyper-parameters of a gradient regression tree."""

    max_depth: int = 3
    min_samples_leaf: int = 2
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_gain: float = 1e-7
    max_bins: int = 256
    """Histogram resolution of the ``"hist"`` backend: features with at most
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


class GradientRegressionTree:
    """A single regression tree fitted to gradients/hessians.

    Parameters
    ----------
    config:
        Tree hyper-parameters (depth, regularisation, minimum leaf size).
    backend:
        ``"node"`` for the pointer-based reference walks, ``"array"`` for the
        flattened :class:`~repro.ml.forest.TreeTensor` kernels with the exact
        presorted split search (all features of a node in one vectorized
        pass), ``"hist"`` for the histogram split search of
        :mod:`repro.ml.hist` (thresholds snap to at most
        ``config.max_bins`` bins per feature; identical to the exact search
        while every feature fits in the bin budget), or ``"auto"`` (default)
        to pick by row count.  The node and array backends fit bit-identical
        trees and produce bit-identical predictions
        (``tests/test_ml_forest.py``); the hist backend's exactness regime is
        arbitrated by ``tests/test_ml_hist.py``.

    A split between the adjacent present values ``lo < hi`` sits at their
    midpoint, or at ``lo`` when the midpoint rounds to ``hi``
    (:func:`~repro.ml.forest.split_threshold`): inference sends
    ``x <= threshold`` left, so every training row is predicted from the
    leaf it was grown into, and :meth:`fit_predict` reads the training
    predictions off that partition.
    """

    def __init__(
        self, config: RegressionTreeConfig | None = None, backend: str = "auto"
    ) -> None:
        self.config = config or RegressionTreeConfig()
        self.config.validate()
        self.backend = backend
        self._resolved_backend = resolve_ml_backend(backend)
        self.root_: _TreeNode | None = None
        self.tensor_: TreeTensor | None = None
        self.num_leaves_: int = 0
        self.num_hist_passes_: int = 0
        self._train_values: np.ndarray | None = None

    def fit(
        self,
        X: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        binned: "object | None" = None,
        presort: FeaturePresort | None = None,
    ) -> "GradientRegressionTree":
        """Grow the tree greedily on ``(X, gradients, hessians)``.

        ``binned`` / ``presort`` optionally supply a prebuilt
        :class:`~repro.ml.hist.BinnedDataset` (hist backend) or
        :class:`~repro.ml.forest.FeaturePresort` (array backend) of ``X``
        itself — one of another shape raises
        :class:`~repro.exceptions.DimensionMismatchError` — so a caller can
        quantize or sort once for several trees; each is ignored by the
        other backends, and a tree fitted on its own builds what it needs.
        On the hist backend the tree is grown by a one-tree
        :class:`~repro.ml.hist.HistTreeGrower`, and ``num_hist_passes_``
        counts its histogram passes (at most one per level).
        """
        self.fit_predict(X, gradients, hessians, binned=binned, presort=presort)
        return self

    def fit_predict(
        self,
        X: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        binned: "object | None" = None,
        presort: FeaturePresort | None = None,
    ) -> np.ndarray:
        """:meth:`fit`, then :meth:`predict` of the training rows — read off
        the partition the growth built instead of walked.

        Every grower records the leaf value of a leaf's rows as it finalises
        the leaf.  Split thresholds follow
        :func:`~repro.ml.forest.split_threshold`, so inference routes each
        training row into the leaf it was grown into, and the result equals
        ``predict(X)`` bit for bit.
        """
        X = np.asarray(X, dtype=np.float64)
        gradients = np.asarray(gradients, dtype=np.float64)
        hessians = np.asarray(hessians, dtype=np.float64)
        if X.ndim != 2:
            raise DimensionMismatchError(f"X must be 2-D, got shape {X.shape}")
        if gradients.shape != (X.shape[0],) or hessians.shape != (X.shape[0],):
            raise DimensionMismatchError(
                "gradients and hessians must be 1-D with one entry per sample"
            )
        if binned is not None and binned.codes.shape != X.shape:
            raise DimensionMismatchError(
                f"binned dataset has codes of shape {binned.codes.shape} but X has "
                f"shape {X.shape}; pass one built from X"
            )
        if presort is not None and presort.codes.shape != X.T.shape:
            raise DimensionMismatchError(
                f"presort has codes of shape {presort.codes.shape} but X.T has "
                f"shape {X.T.shape}; pass one built from X"
            )
        self.num_leaves_ = 0
        self.num_hist_passes_ = 0
        self.tensor_ = None
        self._resolved_backend = resolve_ml_backend(self.backend, num_rows=X.shape[0])
        if self._resolved_backend == "hist":
            from repro.ml.hist import BinnedDataset, HistTreeGrower

            if binned is None:
                binned = BinnedDataset.from_matrix(X, self.config.max_bins)
            grower = HistTreeGrower(binned, self.config)
            roots, values = grower.grow(gradients[:, None], hessians[:, None])
            self._install(roots[0])
            self.num_hist_passes_ = grower.num_passes
            return values[:, 0]
        indices = np.arange(X.shape[0])
        self._train_values = np.empty(X.shape[0], dtype=np.float64)
        if self._resolved_backend == "array":
            if presort is None:
                presort = FeaturePresort.from_matrix(X)
            self.root_ = self._build(presort, gradients, hessians, indices, depth=0)
            self.tensor_ = TreeTensor.from_root(self.root_)
        else:
            self.root_ = self._build(X, gradients, hessians, indices, depth=0)
        values, self._train_values = self._train_values, None
        return values

    def _install(self, root: _TreeNode) -> None:
        """Adopt a tree grown by :class:`~repro.ml.hist.HistTreeGrower`:
        number its leaves left-first DFS, as :meth:`_build` does while it
        grows, and flatten it."""
        self.root_ = root
        self.num_leaves_ = 0
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                node.leaf_id = self.num_leaves_
                self.num_leaves_ += 1
            else:
                stack.append(node.right)
                stack.append(node.left)
        self.tensor_ = TreeTensor.from_root(root)

    # ------------------------------------------------------------------ growth
    def _build(
        self,
        X: "np.ndarray | FeaturePresort",
        gradients: np.ndarray,
        hessians: np.ndarray,
        indices: np.ndarray,
        depth: int,
    ) -> _TreeNode:
        node = _TreeNode(depth=depth)
        grad_sum = gradients[indices].sum()
        hess_sum = hessians[indices].sum()
        node.value = self._leaf_weight(grad_sum, hess_sum)

        if depth >= self.config.max_depth or len(indices) < 2 * self.config.min_samples_leaf:
            return self._finalise_leaf(node, indices)

        split = self._best_split(X, gradients, hessians, indices, grad_sum, hess_sum)
        if split is None:
            return self._finalise_leaf(node, indices)

        feature, threshold, left_idx, right_idx = split
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X, gradients, hessians, left_idx, depth + 1)
        node.right = self._build(X, gradients, hessians, right_idx, depth + 1)
        return node

    def _finalise_leaf(self, node: _TreeNode, indices: np.ndarray) -> _TreeNode:
        """Make ``node`` a leaf and record its value for its training rows."""
        node.feature = None
        self._train_values[indices] = node.value
        node.leaf_id = self.num_leaves_
        self.num_leaves_ += 1
        return node

    def _best_split(
        self,
        X: "np.ndarray | FeaturePresort",
        gradients: np.ndarray,
        hessians: np.ndarray,
        indices: np.ndarray,
        grad_sum: float,
        hess_sum: float,
    ) -> tuple[int, float, np.ndarray, np.ndarray] | None:
        """Exact greedy split search over all features and thresholds.

        The array backend is handed the fit's
        :class:`~repro.ml.forest.FeaturePresort` in place of ``X`` and runs
        the same search for all features in one vectorized pass
        (:func:`repro.ml.forest.best_split_array`); chosen splits are
        bit-identical.
        """
        if self._resolved_backend == "array":
            return best_split_array(
                X, gradients, hessians, indices, grad_sum, hess_sum, self.config
            )
        lam = self.config.reg_lambda
        parent_score = grad_sum * grad_sum / (hess_sum + lam)
        best_gain = self.config.min_gain
        best: tuple[int, float, np.ndarray, np.ndarray] | None = None

        for feature in range(X.shape[1]):
            values = X[indices, feature]
            order = np.argsort(values, kind="mergesort")
            sorted_idx = indices[order]
            sorted_values = values[order]
            grad_cum = np.cumsum(gradients[sorted_idx])
            hess_cum = np.cumsum(hessians[sorted_idx])

            for position in range(
                self.config.min_samples_leaf - 1,
                len(sorted_idx) - self.config.min_samples_leaf,
            ):
                # Cannot split between equal feature values.
                if sorted_values[position] == sorted_values[position + 1]:
                    continue
                grad_left = grad_cum[position]
                hess_left = hess_cum[position]
                grad_right = grad_sum - grad_left
                hess_right = hess_sum - hess_left
                gain = 0.5 * (
                    grad_left * grad_left / (hess_left + lam)
                    + grad_right * grad_right / (hess_right + lam)
                    - parent_score
                ) - self.config.gamma
                if gain > best_gain:
                    best_gain = gain
                    best = (
                        feature,
                        split_threshold(
                            sorted_values[position], sorted_values[position + 1]
                        ),
                        sorted_idx[: position + 1],
                        sorted_idx[position + 1 :],
                    )
        return best

    def _leaf_weight(self, grad_sum: float, hess_sum: float) -> float:
        return leaf_weight(grad_sum, hess_sum, self.config.reg_lambda)

    # --------------------------------------------------------------- inference
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted leaf weight for each row of ``X``."""
        if self.tensor_ is not None:
            return self.tensor_.predict(self._check_inference_input(X))
        leaves = self._apply_nodes(X)
        return np.array([leaf.value for leaf in leaves], dtype=np.float64)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index (0-based, per tree) each row of ``X`` falls into."""
        if self.tensor_ is not None:
            return self.tensor_.apply(self._check_inference_input(X))
        leaves = self._apply_nodes(X)
        return np.array([leaf.leaf_id for leaf in leaves], dtype=np.int64)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf weight each row falls into (same as :meth:`predict`)."""
        return self.predict(X)

    def tensor(self) -> TreeTensor:
        """The flattened form of the fitted tree (built lazily on the node
        backend, cached after :meth:`fit` on the array backend)."""
        if self.root_ is None:
            raise NotFittedError(self)
        if self.tensor_ is None:
            self.tensor_ = TreeTensor.from_root(self.root_)
        return self.tensor_

    def _check_inference_input(self, X: np.ndarray) -> np.ndarray:
        if self.root_ is None:
            raise NotFittedError(self)
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        return X

    def _apply_nodes(self, X: np.ndarray) -> list[_TreeNode]:
        X = self._check_inference_input(X)
        leaves: list[_TreeNode] = []
        for row in X:
            node = self.root_
            while not node.is_leaf:
                assert node.left is not None and node.right is not None
                node = node.left if row[node.feature] <= node.threshold else node.right
            leaves.append(node)
        return leaves

    @property
    def depth(self) -> int:
        """Actual depth of the grown tree."""
        if self.root_ is None:
            raise NotFittedError(self)
        if self.tensor_ is not None:
            return self.tensor_.depth()
        return _node_depth(self.root_)


def _node_depth(node: _TreeNode) -> int:
    """Depth of the subtree under ``node``, via an iterative sweep.

    Deep unbalanced trees (``max_depth`` in the thousands) would blow the
    interpreter's recursion limit under the old recursive formulation; the
    explicit stack handles any depth in O(nodes).
    """
    deepest = 0
    stack: list[tuple[_TreeNode, int]] = [(node, 0)]
    while stack:
        current, depth = stack.pop()
        if current.is_leaf:
            if depth > deepest:
                deepest = depth
            continue
        assert current.left is not None and current.right is not None
        stack.append((current.left, depth + 1))
        stack.append((current.right, depth + 1))
    return deepest
