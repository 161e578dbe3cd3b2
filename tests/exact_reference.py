"""The exact GBDT oracle: a scalar split scan and pointer-walk trees.

Before every fit flattened its trees, a tree could be grown by scanning each
feature of a node position by position and read by walking every row
through its node pointers, one tree at a time.  That route lives here,
unchanged in its arithmetic and written without the product's growers or
tensors, so ``tests/test_ml_forest.py`` can hold the presorted search
(:func:`repro.ml.forest.grow_exact`) and the stacked
:class:`~repro.ml.forest.ForestTensor` walks to it bit for bit.
:func:`reference_tree` grows one tree (leaves numbered as they are made,
left subtree first); :class:`ReferenceBoostedClassifier` boosts them one
tree at a time with the product classifier's API, and its ``predict`` /
``decision_function`` / ``leaf_values`` / ``leaf_indices`` walk the
pointers.  :func:`forest_arrays` lays trees out the way a stacked forest
must hold them, and :func:`forest_leaf_indices` reads the leaf-index
embedding off a fitted model's stacked forest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DimensionMismatchError, NotFittedError
from repro.ml.base import check_X_y, one_hot, softmax
from repro.ml.forest import RegressionTreeConfig, split_threshold


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


def reference_tree(config, X, gradients, hessians):
    """Grow one tree by :func:`best_split`, recursively, left subtree
    first; return its root and the leaf value of every training row."""
    X = np.asarray(X, dtype=np.float64)
    gradients = np.asarray(gradients, dtype=np.float64)
    hessians = np.asarray(hessians, dtype=np.float64)
    values = np.empty(X.shape[0])
    num_leaves = 0

    def build(indices, depth):
        nonlocal num_leaves
        grad_sum = gradients[indices].sum()
        hess_sum = hessians[indices].sum()
        node = Node(float(-grad_sum / (hess_sum + config.reg_lambda)))
        split = None
        if depth < config.max_depth and len(indices) >= 2 * config.min_samples_leaf:
            split = best_split(config, X, gradients, hessians, indices, grad_sum, hess_sum)
        if split is None:
            values[indices] = node.value
            node.leaf_id = num_leaves
            num_leaves += 1
            return node
        node.feature, node.threshold, left_idx, right_idx = split
        node.left = build(left_idx, depth + 1)
        node.right = build(right_idx, depth + 1)
        return node

    return build(np.arange(X.shape[0]), 0), values


def apply_nodes(root: Node, X: np.ndarray) -> list[Node]:
    """The leaf each row of ``X`` reaches, walked row by row."""
    leaves = []
    for row in np.atleast_2d(X):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        leaves.append(node)
    return leaves


def node_depth(node: Node) -> int:
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


def forest_arrays(roots) -> dict[str, np.ndarray]:
    """The arrays a :class:`~repro.ml.forest.ForestTensor` of the trees
    under ``roots`` must hold, built node by node: each tree in left-first
    preorder after the one before it, children by pool slot, and leaf ids
    as the grower numbered them (``-1`` fills the fields a node lacks).
    Works on the nodes of either oracle."""
    rows, starts = [], []

    def place(node, root):
        slot = len(rows)
        rows.append(None)
        if node.is_leaf:
            # A leaf's child slots are never read; the stacked pool holds
            # its tree's root there.
            rows[slot] = (-1, 0.0, root, root, node.value, node.leaf_id)
        else:
            left, right = place(node.left, root), place(node.right, root)
            rows[slot] = (node.feature, node.threshold, left, right, node.value, -1)
        return slot

    for root in roots:
        starts.append(place(root, len(rows)))
    names = ("feature", "threshold", "left", "right", "value", "leaf_id")
    arrays = {name: np.array(column) for name, column in zip(names, zip(*rows))}
    arrays["roots"] = np.array(starts)
    return arrays


def assert_forest_is(forest, roots) -> None:
    """Every array of ``forest`` equals :func:`forest_arrays` of ``roots``
    (NaN matching NaN)."""
    for name, expected in forest_arrays(roots).items():
        np.testing.assert_array_equal(getattr(forest, name), expected, err_msg=name)


def forest_leaf_indices(forest, X: np.ndarray) -> np.ndarray:
    """``(rows, trees)`` leaf ids of a stacked forest (GBDT+LR style), all
    trees walked in lockstep; a single row may come as a vector."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return forest.leaf_id[forest.leaf_slots(X)]


class ReferenceBoostedClassifier:
    """Softmax boosting over :func:`reference_tree`: one tree at a time, a
    fresh softmax at the top of every round, and raw scores accumulated
    tree by tree from pointer walks.  ``trees_`` holds the roots, round by
    round."""

    def __init__(
        self,
        num_rounds=30,
        learning_rate=0.3,
        max_depth=3,
        min_samples_leaf=2,
        reg_lambda=1.0,
        gamma=0.0,
        num_classes=None,
    ):
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.num_classes = num_classes
        self.tree_config = RegressionTreeConfig(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            reg_lambda=reg_lambda,
            gamma=gamma,
        )
        self.trees_ = None

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
                root, values = reference_tree(
                    self.tree_config,
                    X,
                    gradients[:, class_index],
                    hessians[:, class_index],
                )
                leaf_values[:, round_index * num_classes + class_index] = values
                raw_scores[:, class_index] += self.learning_rate * values
                round_trees.append(root)
            self.trees_.append(round_trees)
            clipped = np.clip(softmax(raw_scores), 1e-12, 1.0)
            self.train_loss_history_.append(
                -float(np.mean(np.sum(targets * np.log(clipped), axis=1)))
            )
        self.num_features_ = X.shape[1]
        self.train_leaf_values_ = leaf_values
        return self

    def _check_inference_input(self, X):
        if self.trees_ is None:
            raise NotFittedError(self)
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.num_features_:
            raise DimensionMismatchError(
                f"model was fitted on {self.num_features_} features, got X of "
                f"shape {X.shape}"
            )
        return X

    def decision_function(self, X):
        X = self._check_inference_input(X)
        raw = np.tile(self.base_score_, (X.shape[0], 1))
        for round_trees in self.trees_:
            for class_index, root in enumerate(round_trees):
                raw[:, class_index] += self.learning_rate * np.array(
                    [leaf.value for leaf in apply_nodes(root, X)]
                )
        return raw

    def predict_proba(self, X):
        return softmax(self.decision_function(X))

    def predict(self, X):
        return np.argmax(self.decision_function(X), axis=1)

    def proba_from_leaf_values(self, leaf_values):
        """Raw scores rebuilt from a :meth:`leaf_values` matrix, tree by
        tree, then the softmax."""
        raw = np.tile(self.base_score_, (leaf_values.shape[0], 1))
        num_classes = len(self.base_score_)
        for column in range(leaf_values.shape[1]):
            raw[:, column % num_classes] += self.learning_rate * leaf_values[:, column]
        return softmax(raw)

    def leaf_values(self, X):
        X = self._check_inference_input(X)
        return np.column_stack(
            [[leaf.value for leaf in apply_nodes(root, X)] for root in self._flat_trees()]
        )

    def leaf_indices(self, X):
        X = self._check_inference_input(X)
        return np.column_stack(
            [[leaf.leaf_id for leaf in apply_nodes(root, X)] for root in self._flat_trees()]
        ).astype(np.int64)

    def _flat_trees(self):
        return [root for round_trees in self.trees_ for root in round_trees]
