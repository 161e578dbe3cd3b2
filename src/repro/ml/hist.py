"""Histogram-based GBDT split search (``backend="hist"``).

:func:`repro.ml.forest.best_split_array` made the exact greedy search
array-fast and sorts the float columns only once per fit
(:class:`~repro.ml.forest.FeaturePresort`), but every node still re-orders
its rows by rank code and scans all of them for every feature — a
``(features, rows)`` radix ``argsort`` plus row-length cumulative sums for
every node of every tree of every boosting round.  This module takes row
order out of the per-node path entirely, the way LightGBM/XGBoost-hist do:

* :class:`BinnedDataset` — built **once per fit**: each feature column is
  quantized into at most ``max_bins`` ordered bins (one bin per distinct
  value when the column has ``<= max_bins`` of them, quantile-spaced edges
  otherwise), and the whole matrix is re-expressed as integer bin codes.
* :class:`HistTreeGrower` — grows a tree on the codes.  A node's split
  search is one flattened ``np.bincount`` accumulation of gradient /
  hessian / count histograms over all features, a ``cumsum`` per feature,
  and one masked-gain ``argmax`` over bin boundaries: ``O(rows + bins)``
  per feature, with no per-row ordering at all.
* **Parent-minus-sibling subtraction** — when a node splits, only the
  *smaller* child's histogram is ever accumulated from rows; the larger
  child's is the parent's histogram minus the sibling's, so the total
  accumulation work per tree level is halved.

Exactness contract (the hist twin of the bit-parity suites): whenever a
feature has at most ``max_bins`` distinct values it is binned *exactly* —
one bin per distinct value, candidate thresholds computed by the same
:func:`~repro.ml.forest.split_threshold` rule between the node's adjacent
present values that the exact search uses.  In that regime the chosen
splits (feature, threshold, and row partition) are **identical** to
:func:`~repro.ml.forest.best_split_array`; only the cumulative float sums
behind the gains are associated differently (per-bin partial sums instead
of a row-ordered ``cumsum``), which perturbs gains and leaf values at the
last-ulp level but never the argmax on non-degenerate data.
``tests/test_ml_hist.py`` arbitrates, in the same style as
``tests/test_ml_forest.py`` does for the array backend.

Above ``max_bins`` distinct values the search becomes approximate: split
thresholds snap to quantile bin edges (the classic hist-vs-exact
tradeoff), which is what buys the speed at scale.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelConfigError
from repro.ml.forest import split_threshold


class BinnedDataset:
    """A feature matrix quantized to integer bin codes, built once per fit.

    Attributes
    ----------
    codes:
        ``(rows, features)`` int64 bin code per value.  Codes are ordered:
        ``code(u) <= code(v)`` iff ``u <= v`` within a feature, so a split
        "``code <= b``" is a split "``value <= threshold(b)``".
    num_bins:
        Bins actually used per feature (``<= max_bins``).
    exact:
        Per-feature flag: ``True`` when the feature had ``<= max_bins``
        distinct values and is binned one-bin-per-value (exactness regime).
    bin_values:
        Per exact feature, the sorted distinct values (one per bin);
        ``None`` for quantile features.
    edges:
        Per quantile feature, the ascending cut points (``num_bins - 1`` of
        them); ``code(v) = #{edges < v}``, so rows with ``v <= edges[b]``
        are exactly the rows with ``code <= b``.  ``None`` for exact
        features.
    """

    __slots__ = ("codes", "num_bins", "exact", "bin_values", "edges", "max_bins")

    def __init__(
        self,
        codes: np.ndarray,
        num_bins: np.ndarray,
        exact: np.ndarray,
        bin_values: list[np.ndarray | None],
        edges: list[np.ndarray | None],
        max_bins: int,
    ) -> None:
        self.codes = codes
        self.num_bins = num_bins
        self.exact = exact
        self.bin_values = bin_values
        self.edges = edges
        self.max_bins = max_bins

    @classmethod
    def from_matrix(cls, X: np.ndarray, max_bins: int = 256) -> "BinnedDataset":
        """Quantize every column of ``X`` into at most ``max_bins`` bins."""
        if max_bins < 2:
            raise ModelConfigError("max_bins must be >= 2")
        X = np.asarray(X, dtype=np.float64)
        num_rows, num_features = X.shape
        codes = np.empty((num_rows, num_features), dtype=np.int64)
        num_bins = np.empty(num_features, dtype=np.int64)
        exact = np.empty(num_features, dtype=bool)
        bin_values: list[np.ndarray | None] = []
        edges: list[np.ndarray | None] = []
        for feature in range(num_features):
            column = X[:, feature]
            distinct = np.unique(column)
            if distinct.size <= max_bins:
                # One bin per distinct value: searchsorted maps each value to
                # its rank among the distinct values.
                codes[:, feature] = np.searchsorted(distinct, column)
                num_bins[feature] = distinct.size
                exact[feature] = True
                bin_values.append(distinct)
                edges.append(None)
            else:
                # Quantile-spaced cut points over the raw column; duplicates
                # collapse so every boundary separates at least one value.
                quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
                cuts = np.unique(np.quantile(column, quantiles))
                # side="left": code(v) = #{cuts < v}, so "code <= b" is
                # exactly "v <= cuts[b]" — the inference rule `x <= threshold
                # goes left` partitions training rows identically.
                codes[:, feature] = np.searchsorted(cuts, column, side="left")
                num_bins[feature] = cuts.size + 1
                exact[feature] = False
                bin_values.append(None)
                edges.append(cuts)
        return cls(codes, num_bins, exact, bin_values, edges, max_bins)

    @property
    def num_features(self) -> int:
        return int(self.num_bins.size)

    @property
    def hist_width(self) -> int:
        """Histogram row width: the widest feature's bin count."""
        return int(self.num_bins.max())

    def boundary_threshold(
        self, feature: int, boundary: int, counts: np.ndarray
    ) -> float:
        """The real-valued threshold for splitting ``feature`` after bin
        ``boundary`` in a node whose per-bin row counts are ``counts``.

        Exact features reproduce the exact search's threshold arithmetic:
        :func:`~repro.ml.forest.split_threshold` between the node's largest
        present value left of the boundary and its smallest present value
        right of it (present = the
        node's count histogram is non-zero there — a deeper node may skip
        values, so the global bin edges would give a different, though
        equivalent, cut).  Quantile features use the bin edge, which is the
        only threshold known to separate the two code ranges.
        """
        if not self.exact[feature]:
            cuts = self.edges[feature]
            assert cuts is not None
            return float(cuts[boundary])
        values = self.bin_values[feature]
        assert values is not None
        present = np.flatnonzero(counts[: self.num_bins[feature]] > 0)
        lo = present[present <= boundary].max()
        hi = present[present > boundary].min()
        return split_threshold(values[lo], values[hi])


class HistTreeGrower:
    """Grows one regression tree with histogram split search.

    Mirrors :meth:`repro.ml.tree.GradientRegressionTree._build` exactly —
    same stopping rules, same leaf-id numbering (left-first DFS), same leaf
    weights, same gain formula, same first-strict-maximum tie-breaking —
    with the per-node sort replaced by histogram accumulation and
    parent-minus-sibling subtraction.
    """

    def __init__(
        self,
        binned: BinnedDataset,
        gradients: np.ndarray,
        hessians: np.ndarray,
        config,
    ) -> None:
        self.binned = binned
        self.gradients = gradients
        self.hessians = hessians
        self.config = config
        width = binned.hist_width
        self._width = width
        self._offsets = np.arange(binned.num_features, dtype=np.int64) * width
        self._total = binned.num_features * width
        # boundary b of feature f is a real boundary only while b < bins - 1.
        self._boundary_ok = (
            np.arange(width - 1)[None, :] < (binned.num_bins - 1)[:, None]
        )

    # ------------------------------------------------------------- histograms
    def _accumulate(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Count/gradient/hessian histograms of ``indices``, all features at
        once via one flattened ``bincount`` per statistic."""
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

    # ------------------------------------------------------------ split search
    def _best_split(
        self,
        hist: tuple[np.ndarray, np.ndarray, np.ndarray],
        grad_sum: float,
        hess_sum: float,
        num_rows: int,
    ) -> tuple[int, int] | None:
        """Best ``(feature, boundary)`` over all bin boundaries, or ``None``.

        The gain arithmetic matches the exact search term for term; the flat
        row-major ``argmax`` picks the first boundary of the first feature
        attaining the maximum, exactly like the exact search's sequential
        strict-``>`` scan.
        """
        if self._width < 2:
            return None  # every feature is constant: no boundary exists
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
        # NaN gains (zero-hessian, zero-lambda corner) lose every strict `>`
        # comparison on the exact backends; mask them out identically.
        gains = np.where(valid & ~np.isnan(gains), gains, -np.inf)
        flat_best = int(np.argmax(gains))
        gain = gains.ravel()[flat_best]
        if not gain > config.min_gain:
            return None
        feature, boundary = divmod(flat_best, self._width - 1)
        return feature, boundary

    # ----------------------------------------------------------------- growth
    def grow(self, tree, indices: np.ndarray):
        """Grow and return the root ``_TreeNode`` (leaf ids via ``tree``)."""
        return self._build(tree, indices, depth=0, hist=None)

    def _build(self, tree, indices: np.ndarray, depth: int, hist):
        from repro.ml.tree import _TreeNode

        config = self.config
        node = _TreeNode(depth=depth)
        grad_sum = self.gradients[indices].sum()
        hess_sum = self.hessians[indices].sum()
        node.value = tree._leaf_weight(grad_sum, hess_sum)

        if depth >= config.max_depth or indices.size < 2 * config.min_samples_leaf:
            return tree._finalise_leaf(node, indices)

        if hist is None:
            hist = self._accumulate(indices)
        split = self._best_split(hist, grad_sum, hess_sum, indices.size)
        if split is None:
            return tree._finalise_leaf(node, indices)

        feature, boundary = split
        node.feature = feature
        node.threshold = self.binned.boundary_threshold(
            feature, boundary, hist[0][feature]
        )
        go_left = self.binned.codes[indices, feature] <= boundary
        left_idx = indices[go_left]
        right_idx = indices[~go_left]

        # Parent-minus-sibling: accumulate only the smaller child (and only
        # when a child will actually search — a to-be leaf needs no histogram).
        def needs_hist(child_indices: np.ndarray) -> bool:
            return (
                depth + 1 < config.max_depth
                and child_indices.size >= 2 * config.min_samples_leaf
            )

        left_hist = right_hist = None
        need_left, need_right = needs_hist(left_idx), needs_hist(right_idx)
        if need_left or need_right:
            left_is_small = left_idx.size <= right_idx.size
            small_idx = left_idx if left_is_small else right_idx
            small_hist = self._accumulate(small_idx)
            big_hist = tuple(parent - small for parent, small in zip(hist, small_hist))
            left_hist, right_hist = (
                (small_hist, big_hist) if left_is_small else (big_hist, small_hist)
            )
            if not need_left:
                left_hist = None
            if not need_right:
                right_hist = None

        node.left = self._build(tree, left_idx, depth + 1, left_hist)
        node.right = self._build(tree, right_idx, depth + 1, right_hist)
        return node
