"""Phase III — Combination: edge feature construction and edge labeling.

For an edge ``⟨u, v⟩`` the paper looks up

* ``C_u`` — the local community of **v**'s ego network that contains ``u``,
* ``C_v`` — the local community of **u**'s ego network that contains ``v``,

and builds the edge feature vector (Equation 4)

``f_{⟨u,v⟩} = [tightness(u, C_u), tightness(v, C_v), r_{C_u}, r_{C_v}]``

which a multinomial logistic-regression model maps to the final edge label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.division import DivisionResult, LocalCommunity
from repro.exceptions import NotFittedError, PipelineError
from repro.ml.logistic import LogisticRegression
from repro.types import Edge, Node, RelationType, canonical_edge


CommunityKey = tuple[Node, int]
"""A community is identified by ``(ego, index-within-ego)``."""


def community_key(community: LocalCommunity) -> CommunityKey:
    return (community.ego, community.index)


@dataclass
class EdgeFeatureBuilder:
    """Builds Equation 4 feature vectors from Phase I/II outputs.

    Parameters
    ----------
    division:
        Phase I result (local communities per ego).
    result_vectors:
        Mapping from :func:`community_key` to the community's ``r_C`` vector.
    result_vector_length:
        Length of each ``r_C`` (needed to build zero vectors for missing
        communities, e.g. for friends of sharded-away egos).
    """

    division: DivisionResult
    result_vectors: dict[CommunityKey, np.ndarray]
    result_vector_length: int

    @property
    def feature_length(self) -> int:
        """Length of one edge feature vector: 2 tightness values + 2 · |r_C|."""
        return 2 + 2 * self.result_vector_length

    def edge_feature(self, u: Node, v: Node) -> np.ndarray:
        """Equation 4 feature vector for edge ``⟨u, v⟩``.

        Endpoints are canonicalised first so the same undirected edge always
        yields the same vector regardless of argument order.
        """
        out = np.empty(self.feature_length)
        self._fill_edge_feature(out, u, v)
        return out

    def edge_features(self, edges: Sequence[Edge]) -> np.ndarray:
        """Stack Equation 4 vectors for a batch of edges.

        The design matrix is preallocated and filled row by row — no per-edge
        intermediate arrays, no ``np.vstack`` of per-row allocations.
        """
        out = np.zeros((len(edges), self.feature_length))
        for row, (u, v) in enumerate(edges):
            self._fill_edge_feature(out[row], u, v)
        return out

    def _fill_edge_feature(self, out: np.ndarray, u: Node, v: Node) -> None:
        """Write the Equation 4 vector for ``⟨u, v⟩`` into ``out`` in place."""
        first, second = canonical_edge(u, v)
        community_of_first = self.division.community_containing(second, first)
        community_of_second = self.division.community_containing(first, second)
        length = self.result_vector_length
        out[0] = self._fill_community_terms(
            out[2 : 2 + length], community_of_first, first
        )
        out[1] = self._fill_community_terms(
            out[2 + length :], community_of_second, second
        )

    def _fill_community_terms(
        self, out: np.ndarray, community: LocalCommunity | None, node: Node
    ) -> float:
        """Write ``r_C`` into ``out`` and return the node's tightness in ``C``."""
        if community is None:
            out[:] = 0.0
            return 0.0
        vector = self.result_vectors.get(community_key(community))
        if vector is None:
            out[:] = 0.0
        else:
            out[:] = vector
        return community.tightness.get(node, 0.0)


class EdgeLabeler:
    """The Phase III logistic-regression edge classifier.

    Parameters
    ----------
    feature_builder:
        Equation 4 feature builder.
    num_classes:
        Number of relationship types.
    l2:
        L2 strength of the logistic-regression objective (weights and bias).
    """

    def __init__(
        self,
        feature_builder: EdgeFeatureBuilder,
        num_classes: int = len(RelationType.classification_targets()),
        l2: float = 1e-4,
    ) -> None:
        self.feature_builder = feature_builder
        self.num_classes = num_classes
        self._model = LogisticRegression(l2=l2, num_classes=num_classes)
        self._design: tuple[np.ndarray, np.ndarray] | None = None
        """The ``(X, y)`` the model was last trained on; ``None`` until fitted."""
        self.num_model_fits = 0
        """How many :meth:`fit` calls trained the model (the others found
        the design matrix and targets they were handed already fitted)."""

    def fit(self, edges: Sequence[Edge], labels: Sequence[int]) -> "EdgeLabeler":
        """Train on labeled edges (class indices in ``labels``).

        The model is the minimiser of its objective over the Equation 4
        design matrix and the targets, solved deterministically from them
        alone.  A re-``fit`` whose rebuilt design matrix and targets equal
        the fitted ones *by value* therefore keeps the model: training again
        would reproduce it bit for bit.
        """
        if len(edges) != len(labels):
            raise PipelineError("edges and labels must have the same length")
        if not edges:
            raise PipelineError("cannot fit the edge labeler on zero edges")
        design = (
            self.feature_builder.edge_features(edges),
            np.asarray(labels, dtype=np.int64),
        )
        if self._design is None or not all(map(np.array_equal, design, self._design)):
            self._model.fit(*design)
            self._design = design
            self.num_model_fits += 1
        return self

    def predict_proba(self, edges: Sequence[Edge]) -> np.ndarray:
        if self._design is None:
            raise NotFittedError(self)
        if not edges:
            return np.zeros((0, self.num_classes))
        X = self.feature_builder.edge_features(edges)
        return self._model.predict_proba(X)

    def predict(self, edges: Sequence[Edge]) -> np.ndarray:
        """Predicted class index for each edge."""
        return np.argmax(self.predict_proba(edges), axis=1)

    def predict_types(self, edges: Sequence[Edge]) -> list[RelationType]:
        """Predicted :class:`RelationType` for each edge."""
        return [RelationType(int(index)) for index in self.predict(edges)]


class AgreementEdgeLabeler:
    """Ablation baseline for Phase III: no learned combination model.

    If both endpoint communities agree on a type the edge takes that type;
    otherwise the type with the higher community probability wins.  The paper
    motivates the logistic-regression combiner precisely because this naive
    rule cannot resolve disagreements well.
    """

    def __init__(self, feature_builder: EdgeFeatureBuilder, num_classes: int) -> None:
        self.feature_builder = feature_builder
        self.num_classes = num_classes

    def predict(self, edges: Sequence[Edge]) -> np.ndarray:
        predictions = np.zeros(len(edges), dtype=np.int64)
        for position, (u, v) in enumerate(edges):
            feature = self.feature_builder.edge_feature(u, v)
            r_u = feature[2 : 2 + self.num_classes]
            r_v = feature[
                2
                + self.feature_builder.result_vector_length : 2
                + self.feature_builder.result_vector_length
                + self.num_classes
            ]
            type_u = int(np.argmax(r_u)) if r_u.any() else -1
            type_v = int(np.argmax(r_v)) if r_v.any() else -1
            if type_u == type_v and type_u >= 0:
                predictions[position] = type_u
            elif type_u < 0 and type_v < 0:
                predictions[position] = 0
            else:
                predictions[position] = int(np.argmax(r_u + r_v))
        return predictions
