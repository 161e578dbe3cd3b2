"""Phase II (part 2) — community classification models.

Two interchangeable classifiers label local communities with relationship
types and produce the classification-result vector ``r_C`` consumed by the
combination phase:

* :class:`CNNCommunityClassifier` (LoCEC-CNN) feeds Algorithm 1 feature
  matrices into CommCNN; ``r_C`` is the softmax vector
  ``[P(C, l) ∀ l ∈ L]``.
* :class:`GBDTCommunityClassifier` (LoCEC-XGB) feeds the mean/std statistic
  vectors into the gradient-boosted trees; ``r_C`` is derived from the leaf
  values of the generated trees, compressed to per-class scores (plus the
  softmax probabilities) so the Phase III feature width stays bounded.

Both classifiers gather their design tensors through the
:class:`FeatureMatrixBuilder` they are handed and run the model classes'
one executor each (:mod:`repro.ml.forest`'s tensors, the compiled tape of
:mod:`repro.ml.nn.engine`).  The references those are held to are test
oracles: ``tests/exact_reference.py`` (scalar split scan, pointer-walk
trees) and ``tests/nn_reference.py`` (the layer-by-layer network).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.aggregation import FeatureMatrixBuilder
from repro.core.commcnn import build_commcnn_classifier
from repro.core.config import CommCNNConfig, GBDTConfig
from repro.core.division import LocalCommunity
from repro.exceptions import NotFittedError, PipelineError
from repro.ml.base import softmax
from repro.ml.gbdt import GradientBoostedClassifier
from repro.types import RelationType


class CommunityClassifier:
    """Common interface of the Phase II community classifiers."""

    def fit(
        self, communities: Sequence[LocalCommunity], labels: Sequence[int]
    ) -> "CommunityClassifier":
        raise NotImplementedError

    def predict_proba(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        """``(n_communities, |L|)`` class-probability matrix."""
        raise NotImplementedError

    def predict(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        return np.argmax(self.predict_proba(communities), axis=1)

    def result_vectors(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        """The ``r_C`` vectors used by the combination phase.

        Defaults to the class-probability matrix; sub-classes may append
        model-specific embeddings.
        """
        return self.predict_proba(communities)

    @property
    def result_vector_length(self) -> int:
        """Length of one ``r_C`` vector."""
        raise NotImplementedError


class CNNCommunityClassifier(CommunityClassifier):
    """LoCEC-CNN community classifier built on CommCNN.

    Parameters
    ----------
    builder:
        Feature-matrix builder (defines ``k`` and the column layout).
    num_classes:
        Number of relationship types (3 for the paper's major types).
    config:
        CommCNN hyper-parameters.
    branch_toggles:
        Optional keyword toggles (``include_square_branch`` etc.) forwarded
        to :func:`repro.core.commcnn.build_commcnn_model` for ablations.
    """

    def __init__(
        self,
        builder: FeatureMatrixBuilder,
        num_classes: int = len(RelationType.classification_targets()),
        config: CommCNNConfig | None = None,
        **branch_toggles: bool,
    ) -> None:
        self.builder = builder
        self.num_classes = num_classes
        self.config = config or CommCNNConfig()
        self._branch_toggles = branch_toggles
        self._classifier = None
        self._column_scale: np.ndarray | None = None

    def fit(
        self, communities: Sequence[LocalCommunity], labels: Sequence[int]
    ) -> "CNNCommunityClassifier":
        if len(communities) != len(labels):
            raise PipelineError("communities and labels must have the same length")
        if not communities:
            raise PipelineError("cannot fit the community classifier on zero communities")
        tensor = self.builder.matrices_as_tensor(communities)
        # Column-wise scaling: interaction shares live in [0, 1] but individual
        # features (age buckets, tenure years, ...) do not; without scaling the
        # convolutions are dominated by whichever column has the largest range.
        self._column_scale = np.abs(tensor).max(axis=(0, 1, 2))
        self._column_scale[self._column_scale == 0.0] = 1.0
        self._classifier = build_commcnn_classifier(
            k=self.builder.k,
            num_columns=self.builder.num_columns,
            num_classes=self.num_classes,
            config=self.config,
            **self._branch_toggles,
        )
        self._classifier.fit(tensor / self._column_scale, np.asarray(labels, dtype=np.int64))
        return self

    def predict_proba(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        if self._classifier is None:
            raise NotFittedError(self)
        if not communities:
            return np.zeros((0, self.num_classes))
        tensor = self.builder.matrices_as_tensor(communities)
        assert self._column_scale is not None
        return self._classifier.predict_proba(tensor / self._column_scale)

    @property
    def result_vector_length(self) -> int:
        return self.num_classes


class GBDTCommunityClassifier(CommunityClassifier):
    """LoCEC-XGB community classifier built on gradient-boosted trees.

    ``r_C`` concatenates the softmax class probabilities with per-class sums
    of the ensemble's leaf values — the "values of the leaf nodes of the
    generated trees" that the paper uses as the community embedding, reduced
    per class so the embedding length does not grow with the round count.

    Designs are gathered with :meth:`FeatureMatrixBuilder.statistic_rows`,
    so a builder that follows the division hands every community's row
    over from where it is kept instead of computing it again.
    """

    def __init__(
        self,
        builder: FeatureMatrixBuilder,
        num_classes: int = len(RelationType.classification_targets()),
        config: GBDTConfig | None = None,
    ) -> None:
        self.builder = builder
        self.num_classes = num_classes
        self.config = config or GBDTConfig()
        self._model: GradientBoostedClassifier | None = None
        self._fitted: tuple[list[LocalCommunity], np.ndarray] | None = None

    def fit(
        self, communities: Sequence[LocalCommunity], labels: Sequence[int]
    ) -> "GBDTCommunityClassifier":
        if len(communities) != len(labels):
            raise PipelineError("communities and labels must have the same length")
        if not communities:
            raise PipelineError("cannot fit the community classifier on zero communities")
        design = self.builder.statistic_rows(communities)
        self._model = self.config.classifier(self.num_classes)
        self._model.fit(design, np.asarray(labels, dtype=np.int64))
        # The fit knows the leaf of every training row; the scoring that
        # follows it reads their vectors from here, and the model lets go.
        self._fitted = (list(communities), self._vectors(self._model.train_leaf_values_))
        self._model.train_leaf_values_ = None
        return self

    def predict_proba(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        if self._model is None:
            raise NotFittedError(self)
        if not communities:
            return np.zeros((0, self.num_classes))
        return self._model.predict_proba(self.builder.statistic_rows(communities))

    def result_vectors(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        """Probabilities concatenated with per-class leaf-value scores.

        The first call after :meth:`fit` takes the training communities'
        vectors from the fit; every other community walks the forest once,
        on its row kept per community
        (:meth:`FeatureMatrixBuilder.statistic_rows`).
        """
        if self._model is None:
            raise NotFittedError(self)
        if not communities:
            return np.zeros((0, self.result_vector_length))
        fitted, self._fitted = self._fitted, None
        if fitted is None:
            return self._vectors(self._model.leaf_values(self.builder.statistic_rows(communities)))
        row_of = {id(community): row for row, community in enumerate(fitted[0])}
        rows = np.array([row_of.get(id(community), -1) for community in communities])
        vectors = np.empty((len(communities), self.result_vector_length))
        taken = rows >= 0
        vectors[taken] = fitted[1][rows[taken]]
        walk = np.flatnonzero(~taken)
        if walk.size:
            design = self.builder.statistic_rows([communities[i] for i in walk])
            vectors[walk] = self._vectors(self._model.leaf_values(design))
        return vectors

    def _vectors(self, leaf_values: np.ndarray) -> np.ndarray:
        """``r_C`` of the rows behind a leaf-value matrix (row by row)."""
        probabilities = self._model.proba_from_leaf_values(leaf_values)
        # Leaf columns cycle through classes within each round: reduce them to
        # one summed score per class, round by round, then squash with a
        # softmax so the scale matches the probability block.
        per_class = np.zeros((leaf_values.shape[0], self.num_classes))
        for start in range(0, leaf_values.shape[1], self.num_classes):
            per_class += leaf_values[:, start : start + self.num_classes]
        return np.hstack([probabilities, softmax(per_class)])

    @property
    def result_vector_length(self) -> int:
        return 2 * self.num_classes
