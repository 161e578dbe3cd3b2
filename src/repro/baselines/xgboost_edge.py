"""Plain XGBoost edge-classification baseline.

The paper's third comparator trains a gradient-boosted tree model directly on
per-edge features: "the input feature consists of the individual features of
two end users and the interaction feature between them".  Because ~60 % of
friend pairs have no interaction at all, this baseline suffers exactly the
sparsity problem LoCEC was designed to avoid — its recall in Table IV is the
lowest of all methods.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, PipelineError
from repro.graph.features import NodeFeatureStore
from repro.graph.interactions import InteractionStore
from repro.ml.gbdt import GradientBoostedClassifier
from repro.types import Edge, LabeledEdge, RelationType, canonical_edge


class XGBoostEdgeClassifier:
    """GBDT trained directly on raw per-edge features.

    Parameters
    ----------
    num_rounds, max_depth, learning_rate:
        Hyper-parameters of the underlying gradient-boosted trees.
    """

    def __init__(
        self,
        num_rounds: int = 40,
        max_depth: int = 4,
        learning_rate: float = 0.3,
    ) -> None:
        self.num_rounds = num_rounds
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self._features: NodeFeatureStore | None = None
        self._interactions: InteractionStore | None = None
        self._model: GradientBoostedClassifier | None = None

    def fit(
        self,
        features: NodeFeatureStore,
        interactions: InteractionStore,
        labeled_edges: list[LabeledEdge],
    ) -> "XGBoostEdgeClassifier":
        """Train on the raw features of the labeled edges."""
        if not labeled_edges:
            raise PipelineError("XGBoostEdgeClassifier requires at least one labeled edge")
        self._features = features
        self._interactions = interactions
        X = self._edge_features([item.edge for item in labeled_edges])
        y = np.array([int(item.label) for item in labeled_edges])
        self._model = GradientBoostedClassifier(
            num_rounds=self.num_rounds,
            max_depth=self.max_depth,
            learning_rate=self.learning_rate,
            num_classes=len(RelationType.classification_targets()),
        )
        self._model.fit(X, y)
        return self

    def _edge_features(self, edges: list[Edge]) -> np.ndarray:
        """[f_u, f_v, I_uv] raw feature vector per edge."""
        assert self._features is not None and self._interactions is not None
        rows: list[np.ndarray] = []
        for u, v in edges:
            first, second = canonical_edge(u, v)
            rows.append(
                np.concatenate(
                    [
                        self._features.get_or_default(first),
                        self._features.get_or_default(second),
                        self._interactions.vector(first, second),
                    ]
                )
            )
        return np.vstack(rows)

    def predict_proba(self, edges: list[Edge]) -> np.ndarray:
        if self._model is None:
            raise NotFittedError(self)
        return self._model.predict_proba(self._edge_features(edges))

    def predict(self, edges: list[Edge]) -> list[RelationType]:
        """Predicted relationship type for each edge."""
        probabilities = self.predict_proba(edges)
        return [RelationType(int(index)) for index in np.argmax(probabilities, axis=1)]
