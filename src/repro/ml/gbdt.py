"""Gradient-boosted decision trees with a softmax objective (XGBoost-style).

The paper uses XGBoost in three places:

* the plain **XGBoost** edge-classification baseline (Table IV),
* **LoCEC-XGB**, where a GBDT classifies local communities from aggregated
  mean/std feature vectors, and
* the leaf values of the boosted trees serve as the community embedding
  ``r_C`` for the combination phase ("values of the leaf nodes ... are
  considered as community embedding", Section IV-C).

This module implements multi-class Newton boosting whose fit is one
:class:`~repro.ml.forest.ForestTensor`: every grown tree goes straight into
it, and it answers every inference call, including the leaf-value /
leaf-index embeddings needed by LoCEC-XGB.  The oracles it is held to live
in ``tests/``: ``exact_reference.py`` (the scalar split scan and per-tree
pointer walks) and ``hist_reference.py`` (the recursive,
one-tree-at-a-time histogram grower).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError, FeatureError, ModelConfigError
from repro.ml.base import check_fitted, check_X_y, one_hot, softmax
from repro.ml.forest import (
    FeaturePresort,
    ForestTensor,
    RegressionTreeConfig,
    boosted_scores,
    grow_exact,
)
from repro.ml.hist import BinnedDataset, HistTreeGrower

HIST_AUTO_MIN_ROWS = 4096
"""Row count from which :meth:`GradientBoostedClassifier.fit` grows its
trees by the histogram search of :mod:`repro.ml.hist`; below it the exact
presorted search (bit-identical splits) grows them.  The histogram search
is ``O(rows + bins)`` per feature and level, and its threshold snapping is
amortised away by ``max_bins`` quantile bins.  With the exact search
presorted and feature-batched, and the histogram trees of a round grown
together level by level, the two kernels cross near 1k rows.  Fit seconds
on random 23-column designs, 3 classes, default ``GBDTConfig``, two
alternating runs a side:

======  ===============  ===============  ==============
rows    exact            hist             faster
======  ===============  ===============  ==============
154     0.073-0.086 s    0.157-0.171 s    exact ~2x
926     0.264-0.300 s    0.261-0.271 s    tie
4024    1.19-1.24 s      0.300-0.352 s    hist ~3.5-4x
======  ===============  ===============  ==============

On the LoCEC-XGB designs exact is still ~1.4-1.8x faster at 93 and 154
rows.  The constant stays conservative on purpose: a fit trades exactness
for speed only where the win is decisive, and no benchmark workload sits
between 155 and 4,095 rows to judge a re-routing."""


class GradientBoostedClassifier:
    """Multi-class gradient boosting with softmax loss.

    Parameters
    ----------
    num_rounds:
        Number of boosting rounds; each round grows one tree per class.
    learning_rate:
        Shrinkage applied to every tree's contribution.
    max_depth, min_samples_leaf, reg_lambda, gamma:
        Per-tree hyper-parameters (see :class:`RegressionTreeConfig`).
    num_classes:
        Number of classes; inferred from the labels when ``None``.
    max_bins:
        Histogram resolution of the histogram search (ignored by the
        exact search).

    :meth:`fit` picks the split search from its row count alone (see
    :data:`HIST_AUTO_MIN_ROWS`): below it, the exact search on a
    :class:`~repro.ml.forest.FeaturePresort` built **once per fit** (every
    node searches all features in one pass over integer rank codes; no
    float column is sorted again); from it up, the histogram growth of
    :mod:`repro.ml.hist` (the feature matrix is quantized into at most
    ``max_bins`` bins **once per fit**, and a round's class trees grow
    together, level by level, in ``O(rows + bins)`` per feature and
    level).  The exact search and the forest walks equal the scalar scan
    and per-tree pointer walks of ``tests/exact_reference.py`` bit for bit;
    the histogram search chooses identical splits while each feature has
    at most ``max_bins`` distinct values and snaps thresholds to quantile
    bin edges beyond that.

    Both searches place a split between the adjacent present values
    ``lo < hi`` at their midpoint, or at ``lo`` when the midpoint rounds to
    ``hi`` (:func:`~repro.ml.forest.split_threshold`), so a training row is
    predicted from the leaf it was grown into and :meth:`fit` takes the
    training scores from the partitions instead of walking the trees.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(80, 3))
    >>> y = (X[:, 0] + X[:, 1] > 0).astype(int)
    >>> model = GradientBoostedClassifier(num_rounds=10).fit(X, y)
    >>> float((model.predict(X) == y).mean()) > 0.9
    True
    """

    def __init__(
        self,
        num_rounds: int = 30,
        learning_rate: float = 0.3,
        max_depth: int = 3,
        min_samples_leaf: int = 2,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        num_classes: int | None = None,
        max_bins: int = 256,
    ) -> None:
        if num_rounds < 1:
            raise ModelConfigError("num_rounds must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ModelConfigError("learning_rate must be in (0, 1]")
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.tree_config = RegressionTreeConfig(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            reg_lambda=reg_lambda,
            gamma=gamma,
            max_bins=max_bins,
        )
        self.tree_config.validate()
        self.num_classes = num_classes
        self.forest_: ForestTensor | None = None
        self.base_score_: np.ndarray | None = None
        self.num_features_: int | None = None
        self.train_loss_history_: list[float] = []
        self.train_leaf_values_: np.ndarray | None = None
        self.num_hist_passes_: int = 0

    # --------------------------------------------------------------------- fit
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedClassifier":
        """Fit the boosted ensemble on features ``X`` and integer labels ``y``.

        Every round grows one tree per class on all rows and adds their
        leaf values of the training rows to the running scores.  From
        :data:`HIST_AUTO_MIN_ROWS` rows up, one
        :class:`~repro.ml.hist.HistTreeGrower`, built once per fit, grows a
        round's class trees together, level by level: every level of a
        round is one histogram pass over rows, whatever the class count
        (``num_hist_passes_`` counts them).  Below it
        :func:`~repro.ml.forest.grow_exact` grows the trees one at a time.
        The softmax is taken once a round: the probabilities behind a
        round's loss are the next round's.  The training rows' leaf values
        are read off the partitions the growers built, not walked.
        ``train_leaf_values_`` keeps them as the ``(rows, trees)`` matrix
        :meth:`leaf_values` returns for ``X``, bit for bit.  A caller that
        has read it may set it to ``None`` so the model does not keep a
        copy.
        """
        X, y = check_X_y(X, y)
        finite_columns = np.isfinite(X).all(axis=0)
        if not finite_columns.all():
            raise FeatureError(
                "X holds NaN or infinite values; first offending column: "
                f"{int(np.argmin(finite_columns))}"
            )
        num_classes = self.num_classes or int(y.max()) + 1
        if num_classes < 2:
            raise ModelConfigError("need at least two classes")
        n_samples = X.shape[0]
        targets = one_hot(y, num_classes)

        # Base score: log prior per class, so early rounds start from the
        # empirical class distribution instead of uniform.
        priors = np.clip(targets.mean(axis=0), 1e-6, 1.0)
        self.base_score_ = np.log(priors)
        raw_scores = np.tile(self.base_score_, (n_samples, 1))

        self.train_loss_history_ = []
        leaf_values = np.empty((n_samples, self.num_rounds * num_classes))
        tensors = []

        # The feature matrix is prepared exactly once per fit — quantized
        # for the histogram search, sorted for the exact one — and every
        # tree of every round reuses it.
        grower = presort = None
        if n_samples >= HIST_AUTO_MIN_ROWS:
            binned = BinnedDataset.from_matrix(X, self.tree_config.max_bins)
            grower = HistTreeGrower(binned, self.tree_config)
        else:
            presort = FeaturePresort.from_matrix(X)

        # One softmax a round: the one the loss takes is the next round's.
        probabilities = softmax(raw_scores)
        for round_index in range(self.num_rounds):
            gradients = probabilities - targets
            hessians = probabilities * (1.0 - probabilities)
            if grower is not None:
                round_tensors, values = grower.grow(gradients, hessians)
            else:
                round_tensors, columns = zip(
                    *(
                        grow_exact(presort, gradients[:, k], hessians[:, k], self.tree_config)
                        for k in range(num_classes)
                    )
                )
                values = np.column_stack(columns)
            tensors.extend(round_tensors)
            leaf_values[:, round_index * num_classes : (round_index + 1) * num_classes] = values
            raw_scores += self.learning_rate * values

            probabilities = softmax(raw_scores)
            loss = -float(
                np.mean(
                    np.sum(targets * np.log(np.clip(probabilities, 1e-12, 1.0)), axis=1)
                )
            )
            self.train_loss_history_.append(loss)

        self.num_hist_passes_ = 0 if grower is None else grower.num_passes
        self._num_classes = num_classes
        self.num_features_ = X.shape[1]
        self.train_leaf_values_ = leaf_values
        self.forest_ = ForestTensor(tensors)
        return self

    # --------------------------------------------------------------- inference
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw (pre-softmax) scores of shape ``(n_samples, n_classes)``."""
        X = self._check_inference_input(X)
        return self._scores(self.forest_.leaf_values_matrix(X))

    def _check_inference_input(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "forest_")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self.num_features_:
            raise DimensionMismatchError(
                f"model was fitted on {self.num_features_} features, got X of "
                f"shape {X.shape}"
            )
        return X

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n_samples, n_classes)``."""
        return softmax(self.decision_function(X))

    def proba_from_leaf_values(self, leaf_values: np.ndarray) -> np.ndarray:
        """:meth:`predict_proba` of the rows behind a :meth:`leaf_values`
        matrix, bit for bit, without walking the trees a second time."""
        check_fitted(self, "forest_")
        return softmax(self._scores(leaf_values))

    def _scores(self, leaf_values: np.ndarray) -> np.ndarray:
        return boosted_scores(
            leaf_values, self.base_score_, self.learning_rate, self._num_classes
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class index for each row of ``X``."""
        return np.argmax(self.decision_function(X), axis=1)

    # -------------------------------------------------------------- embeddings
    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf-*value* embedding: shape ``(n_samples, num_rounds * n_classes)``.

        This is the embedding the paper uses for LoCEC-XGB's community
        representation ``r_C``: each column is the leaf weight the sample
        reaches in one of the generated trees.
        """
        X = self._check_inference_input(X)
        return self.forest_.leaf_values_matrix(X)

