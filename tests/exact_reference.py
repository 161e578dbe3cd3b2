"""The exact GBDT oracle: a scalar split scan and pointer-walk trees.

Before every fit flattened its trees, :mod:`repro.ml.tree` could also grow
a tree by scanning each feature of a node position by position and answer
inference by walking every row through the ``_TreeNode`` pointers, one
tree at a time.  That route lives here, unchanged in its arithmetic, so
``tests/test_ml_forest.py`` can hold the presorted search
(:func:`repro.ml.forest.best_split_array`) and the stacked
:class:`~repro.ml.forest.ForestTensor` walks to it bit for bit.
:class:`ReferenceRegressionTree` and :class:`ReferenceBoostedClassifier`
keep the product classes' API over the scan and the walks:
``ReferenceRegressionTree.fit_predict`` / ``ReferenceBoostedClassifier.fit``
are the reference fits, and ``predict`` / ``apply`` / ``depth`` /
``decision_function`` / ``leaf_values`` / ``leaf_indices`` walk the
pointers.  :func:`forest_leaf_indices` reads the same leaf-index embedding
off a fitted model's stacked forest.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_X_y, one_hot, softmax
from repro.ml.forest import ForestTensor, TreeTensor, split_threshold
from repro.ml.gbdt import GradientBoostedClassifier
from repro.ml.tree import GradientRegressionTree, _TreeNode


def best_split(config, X, gradients, hessians, indices, grad_sum, hess_sum):
    """Exact greedy split search over all features and thresholds, one
    feature and one split position at a time; the first strict maximum
    wins."""
    lam = config.reg_lambda
    parent_score = grad_sum * grad_sum / (hess_sum + lam)
    best_gain = config.min_gain
    best = None
    for feature in range(X.shape[1]):
        values = X[indices, feature]
        order = np.argsort(values, kind="mergesort")
        sorted_idx = indices[order]
        sorted_values = values[order]
        grad_cum = np.cumsum(gradients[sorted_idx])
        hess_cum = np.cumsum(hessians[sorted_idx])
        for position in range(
            config.min_samples_leaf - 1, len(sorted_idx) - config.min_samples_leaf
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
            ) - config.gamma
            if gain > best_gain:
                best_gain = gain
                best = (
                    feature,
                    split_threshold(sorted_values[position], sorted_values[position + 1]),
                    sorted_idx[: position + 1],
                    sorted_idx[position + 1 :],
                )
    return best


def apply_nodes(root: _TreeNode, X: np.ndarray) -> list[_TreeNode]:
    """The leaf each row of ``X`` reaches, walked row by row."""
    leaves = []
    for row in X:
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        leaves.append(node)
    return leaves


def node_depth(node: _TreeNode) -> int:
    """Depth of the subtree under ``node``, by an explicit stack, so a
    chain deeper than the interpreter's recursion limit is measured too."""
    deepest = 0
    stack = [(node, 0)]
    while stack:
        current, depth = stack.pop()
        if current.is_leaf:
            deepest = max(deepest, depth)
        else:
            stack.append((current.left, depth + 1))
            stack.append((current.right, depth + 1))
    return deepest


def forest_leaf_indices(forest: ForestTensor, X: np.ndarray) -> np.ndarray:
    """``(rows, trees)`` leaf ids of a stacked forest (GBDT+LR style), all
    trees walked in lockstep; a single row may come as a vector."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return forest.leaf_id[forest.leaf_slots(X)]


class ReferenceRegressionTree(GradientRegressionTree):
    """A regression tree grown by :func:`best_split` and read by
    :func:`apply_nodes`.  ``binned`` / ``presort`` are accepted and
    ignored: the scan sorts each node's values itself."""

    def fit_predict(self, X, gradients, hessians, binned=None, presort=None):
        X = np.asarray(X, dtype=np.float64)
        self.num_leaves_ = 0
        self.num_features_ = X.shape[1]
        self._train_values = np.empty(X.shape[0])
        self.root_ = self._build(
            X,
            np.asarray(gradients, dtype=np.float64),
            np.asarray(hessians, dtype=np.float64),
            np.arange(X.shape[0]),
            depth=0,
        )
        self.tensor_ = TreeTensor.from_root(self.root_)
        values, self._train_values = self._train_values, None
        return values

    def _build(self, X, gradients, hessians, indices, depth):
        node = _TreeNode(depth=depth)
        grad_sum = gradients[indices].sum()
        hess_sum = hessians[indices].sum()
        node.value = self._leaf_weight(grad_sum, hess_sum)
        if depth >= self.config.max_depth or len(indices) < 2 * self.config.min_samples_leaf:
            return self._finalise_leaf(node, indices)
        split = best_split(
            self.config, X, gradients, hessians, indices, grad_sum, hess_sum
        )
        if split is None:
            return self._finalise_leaf(node, indices)
        node.feature, node.threshold, left_idx, right_idx = split
        node.left = self._build(X, gradients, hessians, left_idx, depth + 1)
        node.right = self._build(X, gradients, hessians, right_idx, depth + 1)
        return node

    def predict(self, X):
        leaves = apply_nodes(self.root_, self._check_inference_input(X))
        return np.array([leaf.value for leaf in leaves], dtype=np.float64)

    def apply(self, X):
        leaves = apply_nodes(self.root_, self._check_inference_input(X))
        return np.array([leaf.leaf_id for leaf in leaves], dtype=np.int64)

    @property
    def depth(self):
        return node_depth(self.root_)


class ReferenceBoostedClassifier(GradientBoostedClassifier):
    """Softmax boosting over :class:`ReferenceRegressionTree`: one tree at
    a time, a fresh softmax at the top of every round, and raw scores
    accumulated tree by tree from pointer walks.  It keeps no
    ``forest_``."""

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        num_classes = self.num_classes or int(y.max()) + 1
        targets = one_hot(y, num_classes)
        priors = np.clip(targets.mean(axis=0), 1e-6, 1.0)
        self.base_score_ = np.log(priors)
        raw_scores = np.tile(self.base_score_, (X.shape[0], 1))
        self.trees_, self.train_loss_history_ = [], []
        leaf_values = np.empty((X.shape[0], self.num_rounds * num_classes))
        for round_index in range(self.num_rounds):
            probabilities = softmax(raw_scores)
            gradients = probabilities - targets
            hessians = probabilities * (1.0 - probabilities)
            round_trees = []
            for class_index in range(num_classes):
                tree = ReferenceRegressionTree(self.tree_config)
                values = tree.fit_predict(
                    X, gradients[:, class_index], hessians[:, class_index]
                )
                leaf_values[:, round_index * num_classes + class_index] = values
                raw_scores[:, class_index] += self.learning_rate * values
                round_trees.append(tree)
            self.trees_.append(round_trees)
            clipped = np.clip(softmax(raw_scores), 1e-12, 1.0)
            self.train_loss_history_.append(
                -float(np.mean(np.sum(targets * np.log(clipped), axis=1)))
            )
        self._num_classes = num_classes
        self.num_features_ = X.shape[1]
        self.train_leaf_values_ = leaf_values
        self.forest_ = None
        return self

    def decision_function(self, X):
        X = self._check_inference_input(X)
        raw = np.tile(self.base_score_, (X.shape[0], 1))
        for round_trees in self.trees_:
            for class_index, tree in enumerate(round_trees):
                raw[:, class_index] += self.learning_rate * tree.predict(X)
        return raw

    def leaf_values(self, X):
        X = self._check_inference_input(X)
        return np.column_stack([tree.predict(X) for tree in self._flat_trees()])

    def leaf_indices(self, X):
        X = self._check_inference_input(X)
        return np.column_stack([tree.apply(X) for tree in self._flat_trees()])

    def _flat_trees(self):
        return [tree for round_trees in self.trees_ for tree in round_trees]
