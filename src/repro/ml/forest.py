"""Array-backed kernels for the tree/GBDT model layer.

Fitted trees are flattened into struct-of-arrays *tensors*, and every
inference question is answered with batched level-wise traversal:

* :class:`TreeTensor` — one tree as parallel ``feature``/``threshold``/
  ``left``/``right``/``value``/``leaf_id`` arrays.  ``feature[i] < 0`` marks
  a leaf.  Traversal advances *all* rows one level per NumPy step, so a
  batch prediction costs ``O(depth)`` array ops instead of ``O(rows)``
  Python loops.
* :class:`ForestTensor` — every tree of a boosted ensemble concatenated into
  one node pool with per-tree root offsets.  One traversal sweep moves all
  ``rows x trees`` cursors together, so ``predict_raw``, ``apply`` and the
  leaf-value embedding of all rounds x classes are a single batched walk.
* :class:`FeaturePresort` + :func:`best_split_array` — the exact greedy
  split search, XGBoost-style: every feature is sorted **once per fit**
  into integer rank codes, and a node searches all its features in one
  pass (one radix ``argsort`` of the codes, one 2-D ``cumsum``, one masked
  gain matrix, one ``argmax``) instead of re-sorting a float column per
  feature per node.

Parity contract: these kernels execute the same float64 operations in the
same order as the oracle in ``tests/exact_reference.py`` — a scalar
per-feature, per-position split scan and row-by-row ``_TreeNode`` pointer
walks with sequential per-tree score accumulation — so fitted trees and
all predictions are **bit-identical** to it; the randomized suite in
``tests/test_ml_forest.py`` arbitrates, exactly as the graph parity suites
do for Phases I and II.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelConfigError

ML_BACKENDS = ("auto", "array", "hist")
"""Valid model-layer backends: the exact presorted, feature-batched split
search, or the histogram split search of :mod:`repro.ml.hist`.  ``auto``
picks between them by row count (see :func:`resolve_ml_backend`) and is
what every product caller runs."""

HIST_AUTO_MIN_ROWS = 4096
"""Row-count crossover for ``auto``: below this the exact array search is
kept (bit-identical splits), at or above it ``auto`` prefers the
``O(rows + bins)`` histogram search, whose threshold snapping is amortised
away by ``max_bins`` quantile bins.  With the exact search presorted and
feature-batched, and the histogram trees of a round grown together level
by level, the two kernels cross near 1k rows.  Fit seconds on random
23-column designs, 3 classes, default ``GBDTConfig``, two alternating runs
a side:

======  ===============  ===============  ==============
rows    exact (array)    hist             faster
======  ===============  ===============  ==============
154     0.073-0.086 s    0.157-0.171 s    exact ~2x
926     0.264-0.300 s    0.261-0.271 s    tie
4024    1.19-1.24 s      0.300-0.352 s    hist ~3.5-4x
======  ===============  ===============  ==============

On the LoCEC-XGB designs exact is still ~1.4-1.8x faster at 93 and 154
rows.  The constant stays conservative on purpose: ``auto`` trades
exactness for speed only where the win is decisive, and no benchmark
workload sits between 155 and 4,095 rows to judge a re-routing."""


def resolve_ml_backend(backend: str, num_rows: int | None = None) -> str:
    """Resolve an ML backend name to the concrete implementation to run.

    ``auto`` resolves to the exact array kernels, unless the fitting row
    count is known (``num_rows``) and reaches :data:`HIST_AUTO_MIN_ROWS`, in
    which case the histogram split search takes over.
    """
    if backend not in ML_BACKENDS:
        raise ModelConfigError(
            f"unknown ml backend {backend!r}; available: {sorted(ML_BACKENDS)}"
        )
    if backend == "auto":
        if num_rows is not None and num_rows >= HIST_AUTO_MIN_ROWS:
            return "hist"
        return "array"
    return backend


class TreeTensor:
    """A fitted regression tree flattened to struct-of-arrays form.

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
    def from_root(cls, root) -> "TreeTensor":
        """Flatten a ``_TreeNode`` tree (preorder, root at slot 0)."""
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
        for position, node in enumerate(order):
            value[position] = node.value
            if node.feature is None:
                leaf_id[position] = node.leaf_id
            else:
                feature[position] = node.feature
                threshold[position] = node.threshold
                left[position] = slot[id(node.left)]
                right[position] = slot[id(node.right)]
        return cls(feature, threshold, left, right, value, leaf_id)

    @property
    def num_nodes(self) -> int:
        return int(self.feature.size)

    def leaf_slots(self, X: np.ndarray) -> np.ndarray:
        """Node-pool slot of the leaf each row of ``X`` falls into."""
        num_rows = X.shape[0]
        position = np.zeros(num_rows, dtype=np.int64)
        row_index = np.arange(num_rows)
        while True:
            feature = self.feature[position]
            internal = feature >= 0
            if not internal.any():
                return position
            x_value = X[row_index, np.where(internal, feature, 0)]
            go_left = x_value <= self.threshold[position]
            child = np.where(go_left, self.left[position], self.right[position])
            position = np.where(internal, child, position)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf weight per row."""
        return self.value[self.leaf_slots(X)]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index (0-based, per tree) per row."""
        return self.leaf_id[self.leaf_slots(X)]

    def depth(self) -> int:
        """Tree depth via a vectorized level sweep (no recursion)."""
        frontier = np.array([0], dtype=np.int64)
        depth = 0
        while True:
            internal = frontier[self.feature[frontier] >= 0]
            if internal.size == 0:
                return depth
            frontier = np.concatenate([self.left[internal], self.right[internal]])
            depth += 1


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

    @classmethod
    def from_trees(cls, trees) -> "ForestTensor":
        """Stack fitted :class:`~repro.ml.tree.GradientRegressionTree` objects.

        ``trees`` is the flat round-major tree list (round 0's class trees,
        then round 1's, ...), the column order of the leaf embeddings.
        """
        return cls([tree.tensor() for tree in trees])

    @property
    def num_trees(self) -> int:
        return int(self.roots.size)

    def leaf_slots(self, X: np.ndarray) -> np.ndarray:
        """``(rows, trees)`` pool slots of the leaves all cursors land on."""
        num_rows = X.shape[0]
        position = np.broadcast_to(self.roots, (num_rows, self.num_trees)).copy()
        while True:
            feature = self.feature[position]
            internal = feature >= 0
            if not internal.any():
                return position
            x_value = np.take_along_axis(X, np.where(internal, feature, 0), axis=1)
            go_left = x_value <= self.threshold[position]
            child = np.where(go_left, self.left[position], self.right[position])
            position = np.where(internal, child, position)

    def leaf_values_matrix(self, X: np.ndarray) -> np.ndarray:
        """``(rows, trees)`` leaf-weight matrix — the LoCEC-XGB embedding."""
        return self.value[self.leaf_slots(X)]

    def leaf_indices_matrix(self, X: np.ndarray) -> np.ndarray:
        """``(rows, trees)`` leaf-index matrix (GBDT+LR style)."""
        return self.leaf_id[self.leaf_slots(X)]


def split_threshold(lo: float, hi: float) -> float:
    """The threshold of a split between adjacent present values ``lo < hi``.

    The midpoint, unless it rounds up to ``hi`` — which can happen only when
    ``lo`` and ``hi`` are adjacent doubles — in which case ``lo``
    (scikit-learn's rule).  Inference sends ``x <= threshold`` left, so either way every
    training row lands in the leaf it was grown into.
    """
    threshold = float(0.5 * (lo + hi))
    return float(lo) if threshold == hi else threshold


def boosted_scores(
    leaf_values: np.ndarray,
    base_score: np.ndarray,
    learning_rate: float,
    num_classes: int,
) -> np.ndarray:
    """Raw boosted scores from a ``(rows, trees)`` leaf-weight matrix.

    Per-tree contributions are accumulated sequentially in round-major
    order (round 0's class trees, then round 1's, ...), one round of class
    columns per step — each score sees the same float additions in the same
    order as the oracle's per-tree loop (``tests/exact_reference.py``),
    keeping the raw scores bit-identical — and a caller that already holds the leaf-value
    embedding gets the scores without a second forest walk.
    """
    raw = np.tile(base_score, (leaf_values.shape[0], 1))
    for start in range(0, leaf_values.shape[1], num_classes):
        raw += learning_rate * leaf_values[:, start : start + num_classes]
    return raw


class FeaturePresort:
    """A feature matrix sorted **once per fit** for the exact split search.

    The exact twin of :class:`repro.ml.hist.BinnedDataset`: built by
    :meth:`GradientBoostedClassifier.fit <repro.ml.gbdt.GradientBoostedClassifier.fit>`
    before the first round (or by a tree fitted on its own) and shared by
    every node of every tree, so no node ever sorts a float column again.

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
