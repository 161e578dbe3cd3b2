"""Phase II (part 1) — feature aggregation for local communities.

Implements Equation 1 (per-member interaction shares), Equation 2 (the
interaction feature vector ``I^C_u``) and Algorithm 1 (the ``k × (|I|+|f|)``
community feature matrix ordered by tightness), plus the mean/std statistic
aggregation used by LoCEC-XGB.

The key property the paper relies on is densification: even when a single
edge ``⟨ego, u⟩`` has no interaction at all, ``u`` usually interacts with
*somebody* in its circle, so the aggregated community features are far less
sparse than raw edge features.

Two aggregation backends mirror the Phase I graph backends:

* ``dict`` — the readable reference: per-pair store lookups, one community
  at a time.
* ``csr`` — the :mod:`repro.graph.phase2` kernel layer: the stores are
  compiled once into an :class:`~repro.graph.phase2.InteractionMatrix` /
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

from repro.core.config import RuntimeOptions
from repro.core.division import LocalCommunity, resolve_backend
from repro.exceptions import FeatureError, PipelineError
from repro.graph.features import NodeFeatureStore
from repro.graph.interactions import InteractionStore
from repro.types import Node


def interact(
    node: Node,
    community: frozenset[Node] | set[Node],
    dim: int,
    interactions: InteractionStore,
) -> float:
    """Equation 1: ``node``'s share of the community's interactions on ``dim``.

    ``interact(u, C, j) = (Σ_{v ∈ C\\{u}} I^j_{uv}) / (Σ_{v,w ∈ C} I^j_{vw})``

    The denominator sums over all unordered member pairs.  When the community
    has no interaction at all on dimension ``j`` the share is defined as 0.

    Delegates to the Equation-2 kernel (:func:`interaction_feature_vector`)
    so the scalar and vector paths share one zero-handling and summation
    implementation and cannot drift apart.  Equation 1 is defined for
    ``node ∈ C``; like the vector path, a node outside the community gets
    share 0 (only member-member pairs enter the numerator).
    """
    dim = int(dim)
    if not 0 <= dim < interactions.num_dims:
        raise FeatureError(
            f"interaction dimension {dim} out of range [0, {interactions.num_dims})"
        )
    return float(interaction_feature_vector(node, community, interactions)[dim])


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

    @property
    def num_real_rows(self) -> int:
        return len(self.member_order)


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
    options:
        The unified runtime-knob surface
        (:class:`~repro.core.config.RuntimeOptions`).  Aggregation reads
        only ``backend`` — ``"dict"`` for the per-pair reference path,
        ``"csr"`` for the compiled :class:`~repro.graph.phase2.Phase2Kernel`
        path, ``"auto"`` (default) for CSR; both emit bit-identical matrices
        for integer-valued interaction counts — and runs single-process on
        either.  The other fields belong to the model layers and the
        Phase I runtime.

    Notes
    -----
    The CSR backend compiles the stores on first use and recompiles
    automatically when either store's write counter (``version``) changes,
    so mutating the stores between calls is as safe as on the dict backend.
    """

    def __init__(
        self,
        features: NodeFeatureStore,
        interactions: InteractionStore,
        k: int = 20,
        options: RuntimeOptions | None = None,
    ) -> None:
        options = options or RuntimeOptions()
        options.validate()
        if k < 1:
            raise PipelineError("k must be >= 1")
        self.features = features
        self.interactions = interactions
        self.k = k
        self.options = options
        self.backend = options.backend
        self._resolved_backend = resolve_backend(options.backend)
        self._kernel = None
        self._kernel_versions: tuple[int, int] | None = None

    @property
    def num_columns(self) -> int:
        """``|I| + |f|``: width of every feature matrix."""
        return self.interactions.num_dims + self.features.num_features

    def _compiled_kernel(self):
        """The lazily-compiled Phase II kernel (CSR backend only).

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
        to patch (dict backend, or first use still pending).  Structural
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
    def feature_matrix(self, community: LocalCommunity) -> CommunityFeatureMatrix:
        """Algorithm 1: the ``k × (|I|+|f|)`` matrix of a local community."""
        if self._resolved_backend == "csr":
            return self._feature_matrices_csr([community])[0]
        return self._feature_matrix_dict(community)

    def feature_matrices(
        self, communities: Sequence[LocalCommunity]
    ) -> list[CommunityFeatureMatrix]:
        """Algorithm 1 applied to a batch of communities."""
        if self._resolved_backend == "csr":
            return self._feature_matrices_csr(communities)
        return [self._feature_matrix_dict(community) for community in communities]

    def matrices_as_tensor(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        """Stack feature matrices into a ``(n, 1, k, |I|+|f|)`` CNN input tensor."""
        if self._resolved_backend == "csr" and communities:
            # Direct kernel->CNN tensor path: the batch rows are scattered
            # into the padded tensor inside the kernel — no intermediate
            # per-community matrices, no Python loop over communities.
            kernel = self._compiled_kernel()
            return kernel.community_tensor(
                self._truncated_selection(communities), k=self.k
            )
        tensor = np.zeros(
            (len(communities), 1, self.k, self.num_columns), dtype=np.float64
        )
        for index, community in enumerate(communities):
            tensor[index, 0] = self._feature_matrix_dict(community).matrix
        return tensor

    def _feature_matrix_dict(self, community: LocalCommunity) -> CommunityFeatureMatrix:
        """Reference (dict-backend) Algorithm 1 path."""
        ordered = community.members_by_tightness()[: self.k]
        matrix = np.zeros((self.k, self.num_columns), dtype=np.float64)
        for row, node in enumerate(ordered):
            interaction_part = interaction_feature_vector(
                node, community.members, self.interactions
            )
            matrix[row, : self.interactions.num_dims] = interaction_part
            matrix[row, self.interactions.num_dims :] = self.features.get_view(node)
        return CommunityFeatureMatrix(
            community=community, matrix=matrix, member_order=tuple(ordered)
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

    def _feature_matrices_csr(
        self, communities: Sequence[LocalCommunity]
    ) -> list[CommunityFeatureMatrix]:
        """Vectorized Algorithm 1: one batched row computation, then fills."""
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

    # -------------------------------------------------- LoCEC-XGB aggregation
    def statistic_vector(self, community: LocalCommunity) -> np.ndarray:
        """Mean/std aggregation used by LoCEC-XGB.

        The paper: "we compute the mean and standard deviation of each feature
        dimension regarding all nodes in a local community to form the feature
        vector of a community".  The vector therefore has ``2 × (|I|+|f|)``
        entries, plus the community size appended as a final column (size is
        what separates small family circles from large colleague circles and
        is available to XGBoost "for free" in the paper's setting via the
        number of aggregated rows).
        """
        return self.statistic_vectors([community])[0]

    def statistic_vectors(self, communities: Sequence[LocalCommunity]) -> np.ndarray:
        """Stack per-community statistic vectors into a 2-D design matrix.

        The design matrix is allocated exactly once here and both backends
        fill it in place (:meth:`Phase2Kernel.community_statistics` with
        ``out=``; the dict oracle row by row), so no path pays a second
        allocation per call.
        """
        out = np.zeros((len(communities), 2 * self.num_columns + 1), dtype=np.float64)
        if not communities:
            return out
        if self._resolved_backend == "csr":
            pairs = [
                (community.members, community.members_by_tightness())
                for community in communities
            ]
            self._compiled_kernel().community_statistics(pairs, out=out)
        else:
            for index, community in enumerate(communities):
                self._fill_statistic_vector_dict(community, out[index])
        return out

    def _fill_statistic_vector_dict(
        self, community: LocalCommunity, out: np.ndarray
    ) -> None:
        """Reference (dict-backend) statistic aggregation for one community."""
        members = community.members_by_tightness()
        num_dims = self.interactions.num_dims
        rows = np.zeros((len(members), self.num_columns), dtype=np.float64)
        for row, node in enumerate(members):
            rows[row, :num_dims] = interaction_feature_vector(
                node, community.members, self.interactions
            )
            rows[row, num_dims:] = self.features.get_view(node)
        columns = self.num_columns
        out[:columns] = rows.mean(axis=0)
        out[columns : 2 * columns] = rows.std(axis=0)
        out[-1] = float(len(members))
