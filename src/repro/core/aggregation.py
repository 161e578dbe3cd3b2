"""Phase II (part 1) — feature aggregation for local communities.

Implements Equation 2 (the interaction feature vector ``I^C_u``: every
dimension's Equation-1 member share at once) and Algorithm 1 (the
``k × (|I|+|f|)`` community feature matrix ordered by tightness), plus the
mean/std statistic aggregation used by LoCEC-XGB.

The key property the paper relies on is densification: even when a single
edge ``⟨ego, u⟩`` has no interaction at all, ``u`` usually interacts with
*somebody* in its circle, so the aggregated community features are far less
sparse than raw edge features.

Written twice, on purpose:

* the readable reference — :func:`interaction_feature_vector`,
  :func:`reference_feature_matrix` and :func:`reference_statistic_vector`:
  per-pair store lookups, one community at a time;
* :class:`FeatureMatrixBuilder`, which every product caller uses — the
  :mod:`repro.graph.phase2` kernel layer: the stores are compiled once into
  an :class:`~repro.graph.phase2.InteractionMatrix` /
  :class:`~repro.graph.phase2.NodeFeatureMatrix` pair and each community's
  pair totals are computed once (``O(|C|^2)`` instead of ``O(k * |C|^2)``)
  with batched NumPy gathers.

Both produce bit-identical matrices whenever interaction counts are
integer-valued (which every generated workload guarantees); the parity suite
in ``tests/test_phase2_csr.py`` arbitrates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.division import DivisionResult, LocalCommunity
from repro.exceptions import PipelineError
from repro.graph.features import NodeFeatureStore
from repro.graph.interactions import InteractionStore
from repro.types import Node


def interaction_feature_vector(
    node: Node,
    community: frozenset[Node] | set[Node],
    interactions: InteractionStore,
) -> np.ndarray:
    """Equation 2: the vector ``I^C_u`` of interaction shares over all dimensions.

    A single pass accumulates, for every dimension, the member-pair totals and
    ``node``'s row totals, which avoids the quadratic re-scan per dimension
    that a naive application of Equation 1 would incur.  Silent pairs are
    skipped via the no-copy :meth:`InteractionStore.vector_view` accessor, so
    the scan allocates nothing per pair.
    """
    members = list(community)
    num_dims = interactions.num_dims
    node_totals = np.zeros(num_dims, dtype=np.float64)
    pair_totals = np.zeros(num_dims, dtype=np.float64)
    for index, left in enumerate(members):
        for right in members[index + 1 :]:
            vector = interactions.vector_view(left, right)
            if vector is None:
                continue
            pair_totals += vector
            if left == node or right == node:
                node_totals += vector
    shares = np.zeros(num_dims, dtype=np.float64)
    nonzero = pair_totals > 0
    shares[nonzero] = node_totals[nonzero] / pair_totals[nonzero]
    return shares


@dataclass(frozen=True)
class CommunityFeatureMatrix:
    """The Algorithm 1 output for one local community.

    Attributes
    ----------
    community:
        The community the matrix describes.
    matrix:
        ``k × (|I| + |f|)`` float matrix; rows are members ordered by
        decreasing tightness, zero-padded when the community has fewer than
        ``k`` members.
    member_order:
        The members contributing the non-padding rows, in row order.
    """

    community: LocalCommunity
    matrix: np.ndarray
    member_order: tuple[Node, ...]


def _reference_rows(
    community: LocalCommunity,
    selected: Sequence[Node],
    features: NodeFeatureStore,
    interactions: InteractionStore,
) -> np.ndarray:
    """One ``|I| + |f|`` row per node of ``selected``: its Equation-2 shares
    within ``community``, then its individual features."""
    num_dims = interactions.num_dims
    rows = np.zeros((len(selected), num_dims + features.num_features), dtype=np.float64)
    for row, node in enumerate(selected):
        rows[row, :num_dims] = interaction_feature_vector(
            node, community.members, interactions
        )
        rows[row, num_dims:] = features.get_view(node)
    return rows


def reference_feature_matrix(
    community: LocalCommunity,
    features: NodeFeatureStore,
    interactions: InteractionStore,
    k: int,
) -> CommunityFeatureMatrix:
    """Algorithm 1 for one community, by per-pair store lookups — the
    reference :meth:`FeatureMatrixBuilder.feature_matrices` is tested against."""
    ordered = community.members_by_tightness()[:k]
    matrix = np.zeros((k, interactions.num_dims + features.num_features))
    matrix[: len(ordered)] = _reference_rows(community, ordered, features, interactions)
    return CommunityFeatureMatrix(
        community=community, matrix=matrix, member_order=tuple(ordered)
    )


def reference_statistic_vector(
    community: LocalCommunity,
    features: NodeFeatureStore,
    interactions: InteractionStore,
) -> np.ndarray:
    """The LoCEC-XGB mean / std / size vector of one community, by per-pair
    store lookups — the reference for
    :meth:`FeatureMatrixBuilder.statistic_vectors`."""
    members = community.members_by_tightness()
    rows = _reference_rows(community, members, features, interactions)
    return np.concatenate([rows.mean(axis=0), rows.std(axis=0), [float(len(members))]])


class FeatureMatrixBuilder:
    """Builds community feature representations (Algorithm 1).

    Parameters
    ----------
    features:
        Per-node individual feature store (``F`` in the paper).
    interactions:
        Per-edge interaction store (``I`` in the paper).
    k:
        Number of rows of the feature matrix; communities larger than ``k``
        keep only the ``k`` tightest members, smaller ones are zero-padded.

    Notes
    -----
    Every method runs, single-process, on one compiled
    :class:`~repro.graph.phase2.Phase2Kernel`: the stores are compiled on
    first use and recompiled automatically when either store's write counter
    (``version``) changes, so mutating the stores between calls is safe.
    """

    def __init__(
        self,
        features: NodeFeatureStore,
        interactions: InteractionStore,
        k: int = 20,
    ) -> None:
        if k < 1:
            raise PipelineError("k must be >= 1")
        self.features = features
        self.interactions = interactions
        self.k = k
        self._kernel = None
        self._kernel_versions: tuple[int, int] | None = None
        self._division: DivisionResult | None = None
        self._lists: dict[Node, list[LocalCommunity]] = {}
        self._rows: dict[Node, np.ndarray] = {}
        self.num_rows_computed = 0
        """Statistic rows computed by :meth:`statistic_vectors` so far."""

    @property
    def num_columns(self) -> int:
        """``|I| + |f|``: width of every feature matrix."""
        return self.interactions.num_dims + self.features.num_features

    def _compiled_kernel(self):
        """The lazily-compiled Phase II kernel.

        Recompiled whenever either store reports a write since the last
        compile, so the snapshot can never serve stale matrices.
        """
        versions = (self.features.version, self.interactions.version)
        if self._kernel is None or self._kernel_versions != versions:
            from repro.graph.phase2 import Phase2Kernel

            self._kernel = Phase2Kernel.compile(self.features, self.interactions)
            self._kernel_versions = versions
        return self._kernel

    def invalidate_kernel(self) -> None:
        """Drop the compiled store snapshot (forces a recompile on next use).

        Staleness from ordinary store writes is detected automatically via
        the stores' ``version`` counters; this hook exists for callers that
        mutate store internals out of band.
        """
        self._kernel = None
        self._kernel_versions = None

    def patch_kernel(
        self,
        feature_nodes: Sequence[Node] = (),
        interaction_edges: Sequence[tuple[Node, Node]] = (),
    ) -> bool:
        """Delta-compile store updates into the compiled kernel in place.

        ``feature_nodes`` and ``interaction_edges`` must together cover
        **every** store write since the kernel was last compiled (or
        patched) — the pipeline's update path tracks exactly that.  Values
        are re-read from the live stores, so callers list *what* changed,
        not the new values.

        Returns ``True`` when the kernel is now fresh: either every delta
        was expressible as an in-place CSR/dense write
        (:meth:`Phase2Kernel.patch_interaction` /
        :meth:`Phase2Kernel.patch_features`), or there was nothing compiled
        to patch (first use still pending).  Structural
        deltas — new nodes, new interaction edges — return ``False`` after
        invalidating the kernel, and the next use recompiles from scratch.
        """
        versions = (self.features.version, self.interactions.version)
        if self._kernel is None or self._kernel_versions == versions:
            return True
        kernel = self._kernel
        for node in feature_nodes:
            if not kernel.patch_features(node, self.features.get_view(node)):
                self.invalidate_kernel()
                return False
        for u, v in interaction_edges:
            if not kernel.patch_interaction(u, v, self.interactions.vector_view(u, v)):
                self.invalidate_kernel()
                return False
        self._kernel_versions = versions
        return True

    # ------------------------------------------------------------- Algorithm 1
    def feature_matrices(
        self, communities: Sequence[LocalCommunity]
    ) -> list[CommunityFeatureMatrix]:
        """Algorithm 1 applied to a batch of communities: one batched row
        computation, then fills."""
        pairs = self._truncated_selection(communities)
        rows, offsets = self._compiled_kernel().community_rows_batch(pairs)
        results: list[CommunityFeatureMatrix] = []
        for index, (community, (_, ordered)) in enumerate(zip(communities, pairs)):
            matrix = np.zeros((self.k, self.num_columns), dtype=np.float64)
            matrix[: len(ordered)] = rows[offsets[index] : offsets[index + 1]]
            results.append(
                CommunityFeatureMatrix(
                    community=community, matrix=matrix, member_order=tuple(ordered)
                )
            )
        return results

    def matrices_as_tensor(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        """Stack feature matrices into a ``(n, 1, k, |I|+|f|)`` CNN input tensor.

        The batch rows are scattered into the padded tensor inside the
        kernel — no intermediate per-community matrices, no Python loop over
        communities.
        """
        return self._compiled_kernel().community_tensor(
            self._truncated_selection(communities), k=self.k
        )

    def _truncated_selection(
        self, communities: Sequence[LocalCommunity]
    ) -> list[tuple[frozenset[Node], list[Node]]]:
        """``(members, k-truncated tightness ordering)`` pairs — the
        :class:`~repro.graph.phase2.Phase2Kernel` batch-API contract, built
        in exactly one place so the tensor and matrix paths cannot drift."""
        return [
            (community.members, community.members_by_tightness()[: self.k])
            for community in communities
        ]

    # -------------------------------------------------- LoCEC-XGB aggregation
    def statistic_vectors(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        """Mean/std aggregation used by LoCEC-XGB, one row per community,
        stacked into a 2-D design matrix.  A row depends on its community
        alone, not on the batch.

        The paper: "we compute the mean and standard deviation of each feature
        dimension regarding all nodes in a local community to form the feature
        vector of a community".  A row therefore has ``2 × (|I|+|f|)``
        entries, plus the community size appended as a final column (size is
        what separates small family circles from large colleague circles and
        is available to XGBoost "for free" in the paper's setting via the
        number of aggregated rows).

        The one call that computes rows (``num_rows_computed`` counts them);
        :meth:`statistic_rows` serves the rows kept per community of a
        followed division from it."""
        pairs = [
            (community.members, community.members_by_tightness())
            for community in communities
        ]
        self.num_rows_computed += len(pairs)
        return self._compiled_kernel().community_statistics(pairs)

    # ------------------------------------------- rows kept per community
    def follow(self, division: DivisionResult) -> None:
        """Keep one statistic row per community of ``division`` from now on.

        Rows are kept per ego, beside the community list they were computed
        for, and computed on first use: :meth:`statistic_rows` recomputes an
        ego whose list is no longer the division's (a re-division replaced
        it) and gathers the rest.  A store write that changes a community's
        inputs without re-dividing is the caller's to report, through
        :meth:`refresh_rows`.
        """
        self._division = division
        self._lists, self._rows = {}, {}

    def statistic_rows(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        """:meth:`statistic_vectors` of ``communities``, bit for bit, from the
        rows kept for the followed division (computed when nothing is
        followed).  Each community must be the one at its index in its
        ego's current list."""
        if self._division is None:
            return self.statistic_vectors(communities)
        by_ego, lists = self._division.communities_by_ego, self._lists
        stale = [
            ego
            for ego in dict.fromkeys(community.ego for community in communities)
            if lists.get(ego) is not by_ego.get(ego)
        ]
        if stale:
            fresh = [by_ego.get(ego, []) for ego in stale]
            rows = self.statistic_vectors([c for listed in fresh for c in listed])
            bounds = np.cumsum([0] + [len(listed) for listed in fresh])
            for ego, listed, start, stop in zip(stale, fresh, bounds, bounds[1:]):
                lists[ego], self._rows[ego] = listed, rows[start:stop]
        out = np.empty((len(communities), 2 * self.num_columns + 1))
        for position, community in enumerate(communities):
            listed = lists.get(community.ego, ())
            if not (community.index < len(listed) and listed[community.index] is community):
                raise PipelineError(
                    f"community {community.index} of ego {community.ego!r} is not in "
                    "the division this builder follows"
                )
            out[position] = self._rows[community.ego][community.index]
        return out

    def refresh_rows(self, communities: Sequence[LocalCommunity]) -> None:
        """Recompute, in place, the kept rows of ``communities`` after a
        store write changed their inputs.  Rows not kept — an ego never used
        or re-divided since — are left to :meth:`statistic_rows`."""
        if self._division is None:
            return
        by_ego, lists = self._division.communities_by_ego, self._lists
        kept = [
            community
            for community in communities
            if community.ego in lists and lists[community.ego] is by_ego.get(community.ego)
        ]
        if kept:
            for community, row in zip(kept, self.statistic_vectors(kept)):
                self._rows[community.ego][community.index] = row
