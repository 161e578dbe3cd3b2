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
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from repro.core.division import DivisionResult, LocalCommunity
from repro.exceptions import NotFittedError, PipelineError
from repro.ml.logistic import LogisticRegression
from repro.types import Edge, Node, RelationType, node_key


CommunityKey = tuple[Node, int]
"""A community is identified by ``(ego, index-within-ego)``."""


MAX_INDEX_NODES = 1 << 30
"""The most nodes a Phase III edge index can hold: two ids and a direction
bit share one ``int64`` key (:func:`_pair_keys`)."""


def community_key(community: LocalCommunity) -> CommunityKey:
    return (community.ego, community.index)


def _pair_keys(egos: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Edge-index keys of (ego, member) id pairs: ``(lo << 33) | (hi << 1) |
    (ego == lo)``.  Ids below :data:`MAX_INDEX_NODES` keep every key in
    ``[0, 2**63 - 1)``; a larger id wraps the sign bit."""
    lo, hi = np.minimum(egos, members), np.maximum(egos, members)
    return (lo << 33) | (hi << 1) | (egos == lo)


class EdgeFeatureBuilder:
    """Builds Equation 4 feature vectors from Phase I/II outputs.

    The inputs are compiled once into one edge index:

    * a ``node -> id`` map, ids in :data:`~repro.types.node_key` order, so
      comparing two ids compares the nodes' canonical order;
    * one sorted ``int64`` array of keys, one per (ego, member) pair, beside
      the member's community row in ``R`` and its tightness in that
      community (a member of two overlapping communities takes the earlier
      one in the ego's list).  A key packs the pair's ids as
      ``(lo << 33) | (hi << 1) | (ego == lo)`` (:func:`_pair_keys`), so the
      two directions of a pair sit next to each other, the one whose ego
      has the larger id first;
    * ``R``, every ``r_C`` as a row of one matrix.  Row 0 stays zero and
      stands in for a missing community or vector.

    :meth:`edge_features` is then one ``searchsorted`` per batch and two
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

    def edge_features(self, edges: Sequence[Edge]) -> np.ndarray:
        """Stack Equation 4 vectors for a batch of edges.

        With ``first`` the endpoint earlier in ``node_key`` order, row ``i``
        is ``[t(first, C_first), t(second, C_second), r_{C_first},
        r_{C_second}]`` where ``C_first`` is the community of ``second``'s
        ego network containing ``first``.  An unknown node, a non-edge, a
        self-loop or an un-divided ego finds no key and reads zeros.
        """
        ends = self.node_ids(chain.from_iterable(edges), 2 * len(edges))
        return self.pair_features(ends.reshape(-1, 2))

    def node_ids(self, nodes: Iterable[Node], count: int) -> np.ndarray:
        """The index id of each of ``count`` nodes; -1 for a node it does
        not hold.  Ids change only when the index compiles
        (:attr:`num_compiles`)."""
        return np.fromiter(map(self._ids.get, nodes, repeat(-1)), dtype=np.int64, count=count)

    def pair_features(self, ends: np.ndarray) -> np.ndarray:
        """Equation 4 rows of the edges behind an ``(n, 2)`` array of
        endpoint ids (:meth:`node_ids`), as :meth:`edge_features` builds them."""
        length = self.result_vector_length
        out = np.zeros((len(ends), self.feature_length))
        if not len(ends):
            return out
        first, second = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        # The pair's key in ``second``'s ego network (``_pair_keys(second,
        # first)``), then in ``first``'s one past it — if the first one is
        # there.  An unknown id (-1) makes the query negative: it never
        # matches.
        query = (first << 33) | (second << 1)
        at = np.searchsorted(self._keys, query)
        hit = self._keys[at] == query
        at_second = at + hit
        at[~hit] = -1  # the trailing zero entry
        at_second[self._keys[at_second] != (query | 1)] = -1
        for side, index in enumerate((at, at_second)):
            out[:, side] = self._tightness[index]
            out[:, 2 + side * length : 2 + (side + 1) * length] = self._matrix[self._rows[index]]
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
        if len(nodes) > MAX_INDEX_NODES:
            raise PipelineError(
                f"the Phase III edge index holds at most {MAX_INDEX_NODES} nodes, "
                f"the division spans {len(nodes)}"
            )
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
            _pair_keys(np.repeat(egos, sizes), np.array(members, dtype=np.int64)),
            return_index=True,
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
        keys = self._keys[:-1]
        # A key's ego is its low id when the direction bit is set.
        key_egos = np.where(keys & 1, keys >> 33, (keys >> 1) & 0xFFFFFFFF)
        keep = ~np.isin(key_egos, ego_ids)
        keys, rows, tightness = keys[keep], self._rows[:-1][keep], self._tightness[:-1][keep]
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
        # The training edges, compactly: each endpoint once, and each edge
        # as the positions of its two endpoints there.
        self._nodes: list[Node] = []
        self._ends = np.zeros((0, 2), dtype=np.int64)
        self._ids: tuple[int, np.ndarray] = (-1, np.zeros(0, dtype=np.int64))
        """The builder's ids of ``_nodes``, as of its ``num_compiles``."""
        self.num_model_fits = 0
        """How many :meth:`fit` calls trained the model (the other re-fits
        found the design matrix already fitted)."""
        self.num_rows_checked = 0
        """Design rows :meth:`fit` rebuilt from the feature builder."""

    def fit(
        self,
        edges: Sequence[Edge] | None = None,
        labels: Sequence[int] | None = None,
        dirty_egos: Collection[Node] | None = None,
    ) -> "EdgeLabeler":
        """Train on labeled edges (class indices in ``labels``) or, called
        without them, re-fit on the edges and labels of the last call.

        The model is the minimiser of its objective over the Equation 4
        design matrix and the targets, solved deterministically from them
        alone.  A re-fit whose rebuilt design matrix equals the fitted one
        *by value* therefore keeps the model: training again would
        reproduce it bit for bit.

        A re-fit rebuilds the kept edges' rows from the feature builder's
        current state; ``dirty_egos`` narrows that to the rows of edges
        with an endpoint among them.  An edge's row reads two things
        only: the community of each endpoint's ego network that holds the
        other endpoint, and their ``r_C``.  So after a
        :meth:`EdgeFeatureBuilder.refresh` a row can have moved only if an
        endpoint is an ego whose community list changed or one of whose
        communities was re-scored; with those egos passed, the other rows
        are equal by value and are not rebuilt.  Rebuilt rows that differ
        are written into the kept design, and the model is trained on the
        whole of it.  :attr:`num_rows_checked` counts the rebuilt rows.
        """
        builder = self.feature_builder
        if edges is None and labels is None:
            if self._design is None:
                raise NotFittedError(self)
            if self._ids[0] != builder.num_compiles:
                # A compile renumbers every node.
                self._ids = (builder.num_compiles, builder.node_ids(self._nodes, len(self._nodes)))
            rows = slice(None) if dirty_egos is None else self._incident_rows(dirty_egos)
            X, y = self._design
            fresh = self._rows(self._ids[1][self._ends[rows]])
            if not np.array_equal(fresh, X[rows]):
                X = X.copy()
                X[rows] = fresh
                self._train(X, y)
            return self
        if dirty_egos is not None:
            raise PipelineError("dirty_egos re-checks the kept edges: pass no edges with it")
        if edges is None or labels is None or len(edges) != len(labels):
            raise PipelineError("edges and labels must have the same length")
        if not edges:
            raise PipelineError("cannot fit the edge labeler on zero edges")
        # The rows in one canonical order — by endpoint keys, then label — so
        # the solve sums them alike whatever order the caller listed them in.
        keys = [(sorted(map(node_key, edge)), label) for edge, label in zip(edges, labels)]
        order = sorted(range(len(edges)), key=keys.__getitem__)
        edges, labels = [edges[i] for i in order], [labels[i] for i in order]
        position: dict[Node, int] = {}
        ends = np.fromiter(
            (position.setdefault(node, len(position)) for node in chain.from_iterable(edges)),
            dtype=np.int64,
            count=2 * len(edges),
        ).reshape(-1, 2)
        nodes = list(position)
        ids = builder.node_ids(nodes, len(nodes))
        self._train(self._rows(ids[ends]), np.asarray(labels, dtype=np.int64))
        self._nodes, self._ends, self._ids = nodes, ends, (builder.num_compiles, ids)
        return self

    def _incident_rows(self, egos: Collection[Node]) -> np.ndarray:
        """The design rows of training edges with an endpoint in ``egos``."""
        ids = self._ids[1]
        ego_ids = self.feature_builder.node_ids(egos, len(egos))
        # A flag per index id, and a last one (never set) for the id -1 of
        # a node the index does not hold.
        flags = np.zeros(max(ids.max(), ego_ids.max(initial=-1)) + 2, dtype=bool)
        flags[ego_ids[ego_ids >= 0]] = True
        touched = flags[ids][self._ends]
        return np.flatnonzero(touched[:, 0] | touched[:, 1])

    def _rows(self, ends: np.ndarray) -> np.ndarray:
        """Design rows of the edges behind ``(n, 2)`` endpoint ids."""
        self.num_rows_checked += len(ends)
        return self.feature_builder.pair_features(ends)

    def _train(self, X: np.ndarray, y: np.ndarray) -> None:
        self._model.fit(X, y)
        self._design = (X, y)
        self.num_model_fits += 1

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
