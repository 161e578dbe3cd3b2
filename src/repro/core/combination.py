"""Phase III — Combination: edge feature construction and edge labeling.

For an edge ``⟨u, v⟩`` the paper looks up

* ``C_u`` — the local community of **v**'s ego network that contains ``u``,
* ``C_v`` — the local community of **u**'s ego network that contains ``v``,

and builds the edge feature vector (Equation 4)

``f_{⟨u,v⟩} = [tightness(u, C_u), tightness(v, C_v), r_{C_u}, r_{C_v}]``

which a multinomial logistic-regression model maps to the final edge label.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Collection, Mapping, Sequence

import numpy as np

from repro.core.division import DivisionResult, LocalCommunity
from repro.exceptions import NotFittedError, PipelineError
from repro.ml.logistic import LogisticRegression
from repro.types import Edge, Node, RelationType, node_key


CommunityKey = tuple[Node, int]
"""A community is identified by ``(ego, index-within-ego)``."""


def community_key(community: LocalCommunity) -> CommunityKey:
    return (community.ego, community.index)


class EdgeFeatureBuilder:
    """Builds Equation 4 feature vectors from Phase I/II outputs.

    The inputs are compiled once into one edge index:

    * a ``node -> id`` map, ids in :data:`~repro.types.node_key` order, so
      comparing two ids compares the nodes' canonical order;
    * one sorted ``int64`` array of ``(ego_id << 32) | friend_id`` keys, one
      per (ego, member) pair, beside the member's community row in ``R`` and
      its tightness in that community (a member of two overlapping
      communities takes the earlier one in the ego's list);
    * ``R``, every ``r_C`` as a row of one matrix.  Row 0 stays zero and
      stands in for a missing community or vector.

    :meth:`edge_features` is then one ``searchsorted`` per side and two
    gathers; :meth:`refresh` folds an update in at the cost of what it
    dirtied.

    Parameters
    ----------
    division:
        Phase I result (local communities per ego).
    result_vectors:
        Mapping from :func:`community_key` to the community's ``r_C`` vector;
        a community without one reads as zeros.
    result_vector_length:
        Length of each ``r_C``.
    """

    def __init__(
        self,
        division: DivisionResult,
        result_vectors: Mapping[CommunityKey, np.ndarray],
        result_vector_length: int,
    ) -> None:
        self.division = division
        self.result_vector_length = result_vector_length
        self.num_compiles = 0
        """Full compiles of the index: one per construction, plus one per
        update that brought a node the index has no id for."""
        self.num_rows_written = 0
        """Fresh ``r_C`` rows written into ``R``, compiles included."""
        self._compile(result_vectors)

    @property
    def feature_length(self) -> int:
        """Length of one edge feature vector: 2 tightness values + 2 · |r_C|."""
        return 2 + 2 * self.result_vector_length

    @property
    def result_vectors(self) -> dict[CommunityKey, np.ndarray]:
        """Each community's ``r_C`` by :func:`community_key`: a snapshot
        copied out of ``R``, which stays the one store."""
        return {key: self._matrix[row].copy() for key, row in self._row_of.items()}

    def edge_feature(self, u: Node, v: Node) -> np.ndarray:
        """Equation 4 feature vector for edge ``⟨u, v⟩``.

        Endpoints are canonicalised first so the same undirected edge always
        yields the same vector regardless of argument order.
        """
        return self.edge_features([(u, v)])[0]

    def edge_features(self, edges: Sequence[Edge]) -> np.ndarray:
        """Stack Equation 4 vectors for a batch of edges.

        With ``first`` the endpoint earlier in ``node_key`` order, row ``i``
        is ``[t(first, C_first), t(second, C_second), r_{C_first},
        r_{C_second}]`` where ``C_first`` is the community of ``second``'s
        ego network containing ``first``.  An unknown node, a non-edge, a
        self-loop or an un-divided ego finds no key and reads zeros.
        """
        length = self.result_vector_length
        out = np.zeros((len(edges), self.feature_length))
        if not len(edges):
            return out
        ends = np.fromiter(
            map(self._ids.get, chain.from_iterable(edges), repeat(-1)),
            dtype=np.int64,
            count=2 * len(edges),
        ).reshape(-1, 2)
        first, second = ends.min(axis=1), ends.max(axis=1)
        # An unknown id (-1) makes the query negative: it never matches.
        for side, (ego, friend) in enumerate(((second, first), (first, second))):
            query = (ego << 32) | friend
            at = np.searchsorted(self._keys, query)
            at[self._keys[at] != query] = -1  # the trailing zero entry
            out[:, side] = self._tightness[at]
            out[:, 2 + side * length : 2 + (side + 1) * length] = self._matrix[self._rows[at]]
        return out

    def refresh(
        self,
        keys: Sequence[CommunityKey],
        vectors: np.ndarray,
        changed_egos: Collection[Node] = (),
        rescored_all: bool = False,
    ) -> None:
        """Fold one update in: ``vectors[i]`` is the fresh ``r_C`` of
        ``keys[i]``, and :attr:`division` already holds the new community
        lists of ``changed_egos``.

        A re-scored community overwrites its row of ``R``; a changed ego's
        key block is spliced and its new communities take new rows (as does
        a community scored for the first time).
        ``rescored_all`` (a classifier refit: ``keys`` covers every
        community) first compacts away the rows of replaced communities, as
        does any update once they outnumber the live ones.  Only a node
        without an id forces a full compile, since ids keep ``node_key``
        order.
        """
        if changed_egos:
            for key in [key for key in self._row_of if key[0] in changed_egos]:
                del self._row_of[key]
            nodes = set(changed_egos).union(
                *(c.members for ego in changed_egos for c in self.division.communities_of(ego))
            )
            if not nodes <= self._ids.keys():
                self._compile({**self.result_vectors, **dict(zip(keys, vectors))})
                return
        if rescored_all or len(self._matrix) > 2 * len(self._row_of) + 1:
            self._compact()
        new = [key for key in keys if key not in self._row_of]
        if new:
            self._row_of.update(zip(new, range(len(self._matrix), len(self._matrix) + len(new))))
            self._matrix = np.pad(self._matrix, ((0, len(new)), (0, 0)))
        self._matrix[[self._row_of[key] for key in keys]] = vectors
        self.num_rows_written += len(keys)
        # A community scored for the first time moves its ego's key block
        # off row 0, like a changed community list does.
        splice = set(changed_egos).union(key[0] for key in new)
        if splice:
            self._splice(splice)

    def _compile(self, vectors: Mapping[CommunityKey, np.ndarray]) -> None:
        """Build the id map, ``R`` and the key arrays from scratch."""
        length = self.result_vector_length
        self._row_of = dict(zip(vectors, range(1, len(vectors) + 1)))
        self._matrix = np.concatenate([np.zeros(length), *vectors.values()]).reshape(-1, length)
        egos = self.division.communities_by_ego
        communities = [community for blocks in egos.values() for community in blocks]
        nodes = set(egos).union(*(community.members for community in communities))
        self._ids = {node: id_ for id_, node in enumerate(sorted(nodes, key=node_key))}
        self._set_pairs(*self._index(communities))
        self.num_compiles += 1
        self.num_rows_written += len(vectors)

    def _compact(self) -> None:
        """Renumber the live rows of ``R`` 1..n, dropping dead ones."""
        live = list(self._row_of.values())
        remap = np.zeros(len(self._matrix), dtype=np.int64)
        remap[live] = np.arange(1, len(live) + 1)
        self._matrix = np.concatenate([self._matrix[:1], self._matrix[live]])
        self._row_of = dict(zip(self._row_of, range(1, len(live) + 1)))
        self._rows = remap[self._rows]

    def _index(
        self, communities: list[LocalCommunity]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted keys of the communities' (ego, member) pairs, with each
        member's row and tightness in the first of its ego's communities
        holding it."""
        ids = self._ids
        sizes = [len(community.members) for community in communities]
        egos = np.array([ids[community.ego] for community in communities], dtype=np.int64)
        members = [ids[member] for community in communities for member in community.members]
        keys, first = np.unique(
            np.repeat(egos << 32, sizes) | np.array(members, dtype=np.int64), return_index=True
        )
        rows = [self._row_of.get(community_key(community), 0) for community in communities]
        tightness = [
            community.tightness.get(member, 0.0)
            for community in communities
            for member in community.members
        ]
        return (
            keys,
            np.repeat(np.array(rows, dtype=np.int64), sizes)[first],
            np.array(tightness, dtype=np.float64)[first],
        )

    def _splice(self, egos: Collection[Node]) -> None:
        """Replace the egos' key blocks by ones read from their current
        communities; every other block stays as it is."""
        ego_ids = [self._ids[ego] for ego in egos]
        keep = ~np.isin(self._keys[:-1] >> 32, ego_ids)
        keys, rows, tightness = self._keys[:-1][keep], self._rows[:-1][keep], self._tightness[:-1][keep]
        new_keys, new_rows, new_tightness = self._index(
            [community for ego in egos for community in self.division.communities_of(ego)]
        )
        at = np.searchsorted(keys, new_keys)
        self._set_pairs(
            np.insert(keys, at, new_keys),
            np.insert(rows, at, new_rows),
            np.insert(tightness, at, new_tightness),
        )

    def _set_pairs(self, keys: np.ndarray, rows: np.ndarray, tightness: np.ndarray) -> None:
        """Store the key arrays behind a trailing entry (a key no query
        reaches, row 0, tightness 0) that every miss is pointed at."""
        self._keys = np.append(keys, np.iinfo(np.int64).max)
        self._rows = np.append(rows, 0)
        self._tightness = np.append(tightness, 0.0)


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
        features = self.feature_builder.edge_features(edges)
        length = self.feature_builder.result_vector_length
        r_u = features[:, 2 : 2 + self.num_classes]
        r_v = features[:, 2 + length : 2 + length + self.num_classes]
        type_u = np.where(r_u.any(axis=1), np.argmax(r_u, axis=1), -1)
        type_v = np.where(r_v.any(axis=1), np.argmax(r_v, axis=1), -1)
        return np.where(
            (type_u == type_v) & (type_u >= 0),
            type_u,
            np.where((type_u < 0) & (type_v < 0), 0, np.argmax(r_u + r_v, axis=1)),
        )
