"""CART-style regression trees with second-order (Newton) split gain.

These trees are the weak learners inside :class:`repro.ml.gbdt.GradientBoostedClassifier`.
Each tree is fitted to per-sample gradients and hessians of the boosting
objective, exactly as in the XGBoost formulation: a split's gain is

``0.5 * (G_L²/(H_L+λ) + G_R²/(H_R+λ) - G²/(H+λ)) - γ``

and the optimal leaf weight is ``-G/(H+λ)``.  A fitted tree is flattened
into a :class:`~repro.ml.forest.TreeTensor`, which answers inference.  The
oracles the two split searches are held to are test modules:
``tests/exact_reference.py`` (a scalar, position-by-position scan with
pointer-walk inference) and ``tests/hist_reference.py`` (the recursive
histogram grower).
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
        ``"array"`` for the exact presorted split search (all features of a
        node in one vectorized pass), ``"hist"`` for the histogram split
        search of :mod:`repro.ml.hist` (thresholds snap to at most
        ``config.max_bins`` bins per feature; identical to the exact search
        while every feature fits in the bin budget), or ``"auto"`` (default)
        to pick by row count.  Either way the fitted tree is flattened into
        a :class:`~repro.ml.forest.TreeTensor` that answers every inference
        call.  The exact search is held bit for bit to the scalar scan and
        pointer walks of ``tests/exact_reference.py``
        (``tests/test_ml_forest.py``); the hist backend's exactness regime
        is arbitrated by ``tests/test_ml_hist.py``.

    A split between the adjacent present values ``lo < hi`` sits at their
    midpoint, or at ``lo`` when the midpoint rounds to ``hi``
    (:func:`~repro.ml.forest.split_threshold`): inference sends
    ``x <= threshold`` left, so every training row is predicted from the
    leaf it was grown into, and :meth:`fit_predict` reads the training
    predictions off that partition.  Inference input must have the width
    the tree was fitted on.
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
        self.num_features_: int | None = None
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
        other backend, and a tree fitted on its own builds what it needs.
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
        self.num_features_ = X.shape[1]
        self._resolved_backend = resolve_ml_backend(self.backend, num_rows=X.shape[0])
        if self._resolved_backend == "hist":
            from repro.ml.hist import BinnedDataset, HistTreeGrower

            if binned is None:
                binned = BinnedDataset.from_matrix(X, self.config.max_bins)
            grower = HistTreeGrower(binned, self.config)
            roots, values = grower.grow(gradients[:, None], hessians[:, None])
            self._install(roots[0], X.shape[1])
            self.num_hist_passes_ = grower.num_passes
            return values[:, 0]
        if presort is None:
            presort = FeaturePresort.from_matrix(X)
        self._train_values = np.empty(X.shape[0], dtype=np.float64)
        indices = np.arange(X.shape[0])
        self.root_ = self._build(presort, gradients, hessians, indices, depth=0)
        self.tensor_ = TreeTensor.from_root(self.root_)
        values, self._train_values = self._train_values, None
        return values

    def _install(self, root: _TreeNode, num_features: int) -> None:
        """Adopt a tree grown by :class:`~repro.ml.hist.HistTreeGrower` on
        ``num_features`` columns: number its leaves left-first DFS, as
        :meth:`_build` does while it grows, and flatten it."""
        self.root_ = root
        self.num_features_ = num_features
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
        presort: FeaturePresort,
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

        split = best_split_array(
            presort, gradients, hessians, indices, grad_sum, hess_sum, self.config
        )
        if split is None:
            return self._finalise_leaf(node, indices)

        feature, threshold, left_idx, right_idx = split
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(presort, gradients, hessians, left_idx, depth + 1)
        node.right = self._build(presort, gradients, hessians, right_idx, depth + 1)
        return node

    def _finalise_leaf(self, node: _TreeNode, indices: np.ndarray) -> _TreeNode:
        """Make ``node`` a leaf and record its value for its training rows."""
        node.feature = None
        self._train_values[indices] = node.value
        node.leaf_id = self.num_leaves_
        self.num_leaves_ += 1
        return node

    def _leaf_weight(self, grad_sum: float, hess_sum: float) -> float:
        return leaf_weight(grad_sum, hess_sum, self.config.reg_lambda)

    # --------------------------------------------------------------- inference
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted leaf weight for each row of ``X``."""
        return self.tensor().predict(self._check_inference_input(X))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index (0-based, per tree) each row of ``X`` falls into."""
        return self.tensor().apply(self._check_inference_input(X))

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf weight each row falls into (same as :meth:`predict`)."""
        return self.predict(X)

    def tensor(self) -> TreeTensor:
        """The flattened form of the fitted tree, built by :meth:`fit`."""
        if self.tensor_ is None:
            raise NotFittedError(self)
        return self.tensor_

    def _check_inference_input(self, X: np.ndarray) -> np.ndarray:
        if self.tensor_ is None:
            raise NotFittedError(self)
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self.num_features_:
            raise DimensionMismatchError(
                f"tree was fitted on {self.num_features_} features, got X of "
                f"shape {X.shape}"
            )
        return X

    @property
    def depth(self) -> int:
        """Actual depth of the grown tree."""
        return self.tensor().depth()
