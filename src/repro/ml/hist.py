"""Histogram GBDT growth (``backend="hist"``): level-wise, class-batched.

:func:`repro.ml.forest.best_split_array` made the exact greedy search
array-fast, but every node still re-orders its rows by rank code and scans
all of them for every feature.  This module takes row order out of the
split search the way LightGBM (Ke et al., NeurIPS 2017) and XGBoost-hist
with its depthwise grow policy (Chen & Guestrin, KDD 2016) do:

* :class:`BinnedDataset` — built **once per fit**: each feature column is
  quantized into at most ``max_bins`` ordered bins (one bin per distinct
  value when the column has ``<= max_bins`` of them, quantile-spaced edges
  otherwise), and the whole matrix is re-expressed as integer bin codes.
* :class:`HistTreeGrower` — grows the ``K`` class trees of a boosting
  round together, level by level (a lone tree is ``K = 1``).  A level is
  one ``np.bincount`` per statistic over (node, feature, bin) keys for the
  smaller child of every split node, parent-minus-sibling subtraction for
  the larger children on whole ``(nodes, features, width)`` stacks, and
  one masked-gain pass over the real bin boundaries with one
  first-maximum ``argmax`` per node.  Every tree's root holds all rows, so
  the root's count histogram and the (feature, bin) cell of every value
  are built once per fit, and a round's root pass reads those cells
  without a per-tree copy of them.

Bit-identity with the recursive one-tree-at-a-time grower this replaced
(kept in ``tests/hist_reference.py`` as the oracle): every node's rows stay
in the order that grower kept them, so each per-bin partial sum sees the
same float additions in the same order; a node's gradient and hessian
totals are ``gradients[rows].sum()`` as before; ties go to the first
feature, then the first boundary, as the flat row-major ``argmax`` did;
and leaves are numbered left-first DFS after growth.  A level is cut into
stacks of at most ``_STACK_CELLS`` histogram cells, and the stacks are
grown last-in first-out, so a deep tree never holds a whole wide level of
histograms at once.

Exactness contract with the exact search: whenever a feature has at most
``max_bins`` distinct values it is binned *exactly* — one bin per distinct
value, candidate thresholds computed by the same
:func:`~repro.ml.forest.split_threshold` rule between the node's adjacent
present values that the exact search uses.  In that regime the chosen
splits (feature, threshold, and row partition) are **identical** to
:func:`~repro.ml.forest.best_split_array`; only the cumulative float sums
behind the gains are associated differently (per-bin partial sums instead
of a row-ordered ``cumsum``), which perturbs gains and leaf values at the
last-ulp level but never the argmax on non-degenerate data.
``tests/test_ml_hist.py`` arbitrates both contracts.

Above ``max_bins`` distinct values the search becomes approximate: split
thresholds snap to quantile bin edges (the classic hist-vs-exact
tradeoff), which is what buys the speed at scale.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelConfigError
from repro.ml.forest import split_threshold
from repro.ml.tree import _TreeNode, leaf_weight

_STACK_CELLS = 1 << 17
"""Most histogram cells (nodes x features x width) in one stack of a
level; a wider level is grown as several stacks.  Splitting a stack holds
about fifteen arrays of at most this many cells (1 MiB each as float64),
so a level's working set stays near 16 MiB however wide the tree grows,
while a LoCEC-XGB round (3 trees of depth 3 on 23 features of up to 256
bins: at most 12 searching nodes a level) is one stack per level."""

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
    """Grows the class trees of a boosting round together, level by level.

    Built once per fit on the fit's :class:`BinnedDataset`; each
    :meth:`grow` grows one round, one tree per gradient column (one column
    for a lone tree).  It applies the recursive grower's rules exactly —
    same stopping rules, leaf weights, gain formula, first-maximum
    tie-breaking, left-first DFS leaf numbering and parent-minus-sibling
    choice of which child to accumulate — to every node of a level at
    once.  ``num_passes`` counts histogram accumulation passes over rows:
    at most one per level of a round, whatever the number of trees.
    """

    def __init__(self, binned: BinnedDataset, config) -> None:
        self.binned = binned
        self.config = config
        self.num_passes = 0
        num_features, width = binned.num_features, binned.hist_width
        self._width = width
        self._shape = (num_features, width)
        self._total = num_features * width
        # Histogram cell (feature, bin) of every value, row-major.
        self._cells = binned.codes + np.arange(num_features, dtype=np.int64) * width
        # Cells of the real boundaries: bin b of feature f ends one while
        # b < bins - 1; the search reads only these.
        self._boundaries = np.flatnonzero(
            np.arange(width)[None, :] < (binned.num_bins - 1)[:, None]
        )
        # Every root holds all rows: its count histogram is built once.
        self._root_counts = np.bincount(
            self._cells.ravel(), minlength=self._total
        ).reshape(self._shape)

    # ----------------------------------------------------------------- growth
    def grow(
        self, gradients: np.ndarray, hessians: np.ndarray
    ) -> tuple[list[_TreeNode], np.ndarray]:
        """Grow one tree per column of the ``(rows, trees)`` ``gradients``
        / ``hessians``; return the roots (leaf ids unset) and the ``(rows,
        trees)`` leaf values of the training rows.

        Stacks are split last-in first-out, so a level cut into several
        stacks is grown one stack's subtree at a time and the histograms
        alive at once stay within a few stacks per level.
        """
        num_rows, num_trees = gradients.shape
        self._grads = np.ascontiguousarray(gradients.T)
        self._hessians = np.ascontiguousarray(hessians.T)
        self._values = np.empty((num_rows, num_trees))
        rows = np.arange(num_rows)
        roots, level = [], []
        for tree in range(num_trees):
            root, searcher = self._open(tree, rows, depth=0)
            roots.append(root)
            if searcher is not None:
                level.append(searcher)
        # Roots search together or not at all: they hold the same rows.
        stacks = [(level, self._root_histograms())] if level else []
        while stacks:
            stacks.extend(self._split(*stacks.pop()))
        values, self._values = self._values, None
        self._grads = self._hessians = None
        return roots, values

    def _open(self, tree: int, rows: np.ndarray, depth: int):
        """A new node of ``tree`` over ``rows``: its leaf weight, and the
        search entry ``(tree, rows, node, grad_sum, hess_sum)`` when it may
        split (``None`` makes it a leaf now)."""
        config = self.config
        grad_sum = self._grads[tree][rows].sum()
        hess_sum = self._hessians[tree][rows].sum()
        node = _TreeNode(
            depth=depth, value=leaf_weight(grad_sum, hess_sum, config.reg_lambda)
        )
        if depth < config.max_depth and rows.size >= 2 * config.min_samples_leaf:
            return node, (tree, rows, node, grad_sum, hess_sum)
        self._values[rows, tree] = node.value
        return node, None

    def _split(self, level: list, hist: tuple):
        """Split every node of one stack; return its children's stacks."""
        counts = hist[0]
        best = self._best_splits(level, hist)
        codes = self.binned.codes
        smaller: list[np.ndarray] = []
        smaller_trees: list[int] = []
        children = []  # (search entry, smaller slot, parent position or -1)
        for position, (tree, rows, node, _, _) in enumerate(level):
            if best[position] < 0:
                self._values[rows, tree] = node.value
                continue
            feature, boundary = divmod(int(best[position]), self._width)
            node.feature = feature
            node.threshold = self.binned.boundary_threshold(
                feature, boundary, counts[position, feature]
            )
            go_left = codes[rows, feature] <= boundary
            left_rows, right_rows = rows[go_left], rows[~go_left]
            node.left, left = self._open(tree, left_rows, node.depth + 1)
            node.right, right = self._open(tree, right_rows, node.depth + 1)
            if left is None and right is None:
                continue
            # Parent-minus-sibling: only the smaller child is accumulated
            # from rows; the larger is its parent's histogram minus it.
            left_small = left_rows.size <= right_rows.size
            slot = len(smaller)
            smaller.append(left_rows if left_small else right_rows)
            smaller_trees.append(tree)
            if left is not None:
                children.append((left, slot, -1 if left_small else position))
            if right is not None:
                children.append((right, slot, position if left_small else -1))
        if not children:
            return []
        # One pass for the level: every smaller child's rows, keyed by slot.
        sizes = [rows.size for rows in smaller]
        rows = np.concatenate(smaller)
        slots = np.repeat(np.arange(len(smaller), dtype=np.int64) * self._total, sizes)
        small = self._histograms(
            len(smaller),
            (self._cells[rows] + slots[:, None]).ravel(),
            np.repeat(smaller_trees, sizes),
            rows,
        )
        height = max(1, _STACK_CELLS // self._total)
        stacks = []
        for start in range(0, len(children), height):
            chunk = children[start : start + height]
            slots = np.array([slot for _, slot, _ in chunk])
            parents = np.array([parent for _, _, parent in chunk])
            derived = parents >= 0
            stats = []
            for parent_stat, small_stat in zip(hist, small):
                stat = small_stat[slots]
                stat[derived] = parent_stat[parents[derived]] - small_stat[slots[derived]]
                stats.append(stat)
            stacks.append(([entry for entry, _, _ in chunk], tuple(stats)))
        return stacks[::-1]

    # ------------------------------------------------------------- histograms
    def _root_histograms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Count/gradient/hessian histograms of every tree's root: the fit's
        count histogram, and per tree one ``bincount`` per statistic over
        the cells of all rows (no tree-keyed copy of them)."""
        self.num_passes += 1
        num_features = self._shape[0]
        shape = (self._grads.shape[0], *self._shape)
        cells = self._cells.ravel()
        grads, hessians = (
            np.stack(
                [
                    np.bincount(
                        cells, weights=np.repeat(column, num_features), minlength=self._total
                    )
                    for column in stat
                ]
            ).reshape(shape)
            for stat in (self._grads, self._hessians)
        )
        return np.broadcast_to(self._root_counts, shape), grads, hessians

    def _histograms(
        self, num_nodes: int, keys: np.ndarray, trees: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Count/gradient/hessian histograms of ``num_nodes`` nodes: one
        ``bincount`` per statistic over ``keys`` — the (node, feature, bin)
        cells of the values of ``rows``, row-major — weighted by each row's
        gradient and hessian in its tree (``trees``).  A node's rows keep
        their order, so each bin sums its rows in that order."""
        self.num_passes += 1
        num_features = self._shape[0]
        shape = (num_nodes, *self._shape)
        length = num_nodes * self._total
        counts = np.bincount(keys, minlength=length).reshape(shape)
        grads, hessians = (
            np.bincount(
                keys, weights=np.repeat(stat[trees, rows], num_features), minlength=length
            ).reshape(shape)
            for stat in (self._grads, self._hessians)
        )
        return counts, grads, hessians

    # ------------------------------------------------------------ split search
    def _best_splits(self, level: list, hist: tuple) -> np.ndarray:
        """Histogram cell ``feature * width + boundary`` of each node's best
        split, or ``-1`` where no boundary gains more than ``min_gain``.

        The gain arithmetic is the exact search's, term for term, on the
        real boundaries only; a node's ``argmax`` over them in row-major
        order picks the first boundary of the first feature attaining its
        maximum, like the exact search's strict-``>`` scan.  NaN gains (the
        zero-hessian, zero-lambda corner) lose every strict comparison
        there, so they are masked out here.
        """
        cells = self._boundaries
        if not cells.size:
            return np.full(len(level), -1)  # every feature is constant
        config = self.config
        lam = config.reg_lambda
        size = len(level)
        grad_sum = np.array([entry[3] for entry in level])[:, None]
        hess_sum = np.array([entry[4] for entry in level])[:, None]
        num_rows = np.array([entry[1].size for entry in level])[:, None]
        count_left, grad_left, hess_left = (
            np.cumsum(stat, axis=2).reshape(size, -1).take(cells, axis=1)
            for stat in hist
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            parent_score = grad_sum * grad_sum / (hess_sum + lam)
            grad_right = grad_sum - grad_left
            hess_right = hess_sum - hess_left
            # gains = 0.5 * (G_L²/(H_L+λ) + G_R²/(H_R+λ) - G²/(H+λ)) - γ,
            # one operation at a time in place.
            gains = grad_left
            gains *= grad_left
            hess_left += lam
            gains /= hess_left
            grad_right *= grad_right
            hess_right += lam
            grad_right /= hess_right
            gains += grad_right
            gains -= parent_score
            gains *= 0.5
            gains -= config.gamma
        invalid = count_left < config.min_samples_leaf
        invalid |= count_left > num_rows - config.min_samples_leaf
        invalid |= np.isnan(gains)
        gains[invalid] = -np.inf
        best = np.argmax(gains, axis=1)
        best_gain = np.take_along_axis(gains, best[:, None], axis=1)[:, 0]
        return np.where(best_gain > config.min_gain, cells[best], -1)
