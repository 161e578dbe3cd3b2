"""Parity tests: the Phase II kernel layer must match its reference exactly.

``FeatureMatrixBuilder`` routes Equations 1-2, Algorithm 1 and the LoCEC-XGB
statistic aggregation through the compiled
:class:`repro.graph.phase2.Phase2Kernel`.  Interaction counts are
integer-valued in every generated workload, so the builder must reproduce
``reference_feature_matrix`` / ``reference_statistic_vector`` (per-pair
store lookups) **bit-for-bit** — feature matrices, CNN input tensors and
statistic vectors alike.  The suite sweeps randomized stores and community
shapes (missing nodes, singletons, non-member selections) plus the paper's
example network, and carries the regression tests for the
``DivisionResult.community_containing`` member index and the Equation-1
``interact`` delegation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.aggregation import (
    FeatureMatrixBuilder,
    interact,
    interaction_feature_vector,
    reference_feature_matrix,
    reference_statistic_vector,
)
from repro.core.division import DivisionResult, LocalCommunity, divide
from repro.exceptions import FeatureError
from repro.graph import Graph, InteractionStore, NodeFeatureStore
from repro.graph.phase2 import Phase2Kernel

SEEDS = (0, 1, 2, 3, 4)


def random_stores(
    seed: int,
    num_nodes: int = 30,
    num_dims: int = 5,
    num_features: int = 3,
    integer_counts: bool = True,
) -> tuple[NodeFeatureStore, InteractionStore]:
    """Random feature/interaction stores over nodes ``0..num_nodes - 1``.

    Some nodes are left out of each store on purpose: real communities
    contain silent members and members with private profiles.
    """
    rng = random.Random(seed)
    features = NodeFeatureStore([f"f{i}" for i in range(num_features)])
    interactions = InteractionStore(num_dims=num_dims)
    for node in range(num_nodes):
        if rng.random() < 0.8:
            features.set(node, [rng.randint(0, 5) + 0.5 for _ in range(num_features)])
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < 0.25:
                dim = rng.randrange(num_dims)
                count = rng.randint(1, 9) if integer_counts else rng.random() * 4
                interactions.record(u, v, dim, count)
    return features, interactions


def random_communities(
    seed: int, num_nodes: int = 30, num_communities: int = 12
) -> list[LocalCommunity]:
    """Randomized communities, including singletons and out-of-store members."""
    rng = random.Random(seed + 1000)
    communities = []
    for index in range(num_communities):
        size = rng.choice([1, 2, 3, 5, 8, 12])
        # num_nodes + 2 admits members no store has ever seen.
        members = frozenset(rng.sample(range(num_nodes + 2), size))
        tightness = {member: rng.random() for member in members}
        communities.append(
            LocalCommunity(ego=-index, members=members, tightness=tightness, index=0)
        )
    return communities


def reference_matrices(builder: FeatureMatrixBuilder, communities) -> list:
    return [
        reference_feature_matrix(c, builder.features, builder.interactions, builder.k)
        for c in communities
    ]


def reference_statistics(builder: FeatureMatrixBuilder, communities) -> np.ndarray:
    return np.array(
        [
            reference_statistic_vector(c, builder.features, builder.interactions)
            for c in communities
        ]
    )


def assert_matches_reference(builder: FeatureMatrixBuilder, communities) -> None:
    expected = reference_matrices(builder, communities)
    for left, right in zip(expected, builder.feature_matrices(communities)):
        assert left.member_order == right.member_order
        assert np.array_equal(left.matrix, right.matrix)
    assert np.array_equal(
        np.array([item.matrix for item in expected])[:, None],
        builder.matrices_as_tensor(communities),
    )
    assert np.array_equal(
        reference_statistics(builder, communities),
        builder.statistic_vectors(communities),
    )


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_stores_and_communities_bit_identical(self, seed):
        features, interactions = random_stores(seed)
        communities = random_communities(seed)
        assert_matches_reference(
            FeatureMatrixBuilder(features, interactions, k=6), communities
        )

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_division_communities_bit_identical(self, seed):
        """End-to-end: communities from Phase I on a random graph."""
        rng = random.Random(seed)
        graph = Graph(nodes=range(24))
        for u in range(24):
            for v in range(u + 1, 24):
                if rng.random() < 0.2:
                    graph.add_edge(u, v)
        features, interactions = random_stores(seed, num_nodes=24)
        communities = list(divide(graph).all_communities())
        assert_matches_reference(
            FeatureMatrixBuilder(features, interactions, k=4), communities
        )

    def test_workload_communities_bit_identical(self, tiny_workload, tiny_division):
        """The synthetic WeChat-like workload (the benchmark configuration)."""
        communities = list(tiny_division.all_communities())
        builder = FeatureMatrixBuilder(
            tiny_workload.dataset.features, tiny_workload.dataset.interactions, k=20
        )
        assert_matches_reference(builder, communities)

    def test_non_integer_counts_stay_close(self):
        """Float counts lose the exactness guarantee but stay within ulps."""
        features, interactions = random_stores(7, integer_counts=False)
        communities = random_communities(7)
        builder = FeatureMatrixBuilder(features, interactions, k=6)
        left = reference_statistics(builder, communities)
        right = builder.statistic_vectors(communities)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-15)

    def test_empty_batch(self):
        features, interactions = random_stores(0)
        builder = FeatureMatrixBuilder(features, interactions, k=6)
        assert builder.feature_matrices([]) == []
        assert builder.matrices_as_tensor([]).shape == (0, 1, 6, builder.num_columns)
        assert builder.statistic_vectors([]).shape == (0, 2 * builder.num_columns + 1)

    def test_single_community_matches_batch(self):
        features, interactions = random_stores(3)
        community = random_communities(3)[0]
        builder = FeatureMatrixBuilder(features, interactions, k=6)
        single = builder.feature_matrix(community)
        batch = builder.feature_matrices([community])[0]
        assert np.array_equal(single.matrix, batch.matrix)
        assert np.array_equal(
            builder.statistic_vector(community),
            builder.statistic_vectors([community])[0],
        )


class TestPhase2Kernel:
    def test_compile_interns_both_stores(self):
        features, interactions = random_stores(0)
        kernel = Phase2Kernel.compile(features, interactions)
        nodes = set(features.nodes())
        for u, v in interactions.edges_with_interaction():
            nodes.update((u, v))
        assert kernel.num_nodes == len(nodes)

    def test_unknown_nodes_resolve_to_zero_rows(self):
        features, interactions = random_stores(0)
        kernel = Phase2Kernel.compile(features, interactions)
        rows = kernel.feature_rows(["never-seen", "also-never-seen"])
        assert np.array_equal(rows, np.zeros((2, features.num_features)))

    def test_share_rows_for_non_member_selection_are_zero(self):
        """Selecting a node outside the community yields a zero share row,
        matching what Equation 2 computes for a non-member."""
        features, interactions = random_stores(1)
        members = frozenset(range(6))
        kernel = Phase2Kernel.compile(features, interactions)
        [shares] = kernel.community_share_rows([(members, [17])])
        reference = interaction_feature_vector(17, members, interactions)
        assert np.array_equal(shares[0], reference)

    def test_kernel_recompiles_after_store_mutation(self):
        """Store writes bump the version counters, so the compiled kernel can
        never serve stale matrices — parity with the reference holds across
        writes."""
        features, interactions = random_stores(2)
        community = random_communities(2)[2]
        members = sorted(community.members)[:2]
        builder = FeatureMatrixBuilder(features, interactions, k=4)
        assert np.array_equal(
            builder.feature_matrix(community).matrix,
            reference_feature_matrix(community, features, interactions, 4).matrix,
        )
        interactions.record(members[0], members[-1], 0, 100)
        features.set(members[0], [9.0] * features.num_features)
        assert np.array_equal(
            builder.feature_matrix(community).matrix,
            reference_feature_matrix(community, features, interactions, 4).matrix,
        )

    def test_explicit_invalidate_kernel(self):
        features, interactions = random_stores(2)
        builder = FeatureMatrixBuilder(features, interactions, k=4)
        builder.feature_matrices(random_communities(2)[:1])
        assert builder._kernel is not None
        builder.invalidate_kernel()
        assert builder._kernel is None


class TestInteractDelegation:
    """Equation 1 must be the vector kernel evaluated at one dimension."""

    def test_matches_vector_path_exactly(self):
        features, interactions = random_stores(4)
        for community in random_communities(4):
            for member in community.members:
                vector = interaction_feature_vector(
                    member, community.members, interactions
                )
                for dim in range(interactions.num_dims):
                    assert interact(member, community.members, dim, interactions) == (
                        vector[dim]
                    )

    def test_matches_bruteforce_equation1(self):
        """Independent re-derivation of Equation 1 from raw store lookups."""
        _, interactions = random_stores(5)
        community = frozenset(range(8))
        members = list(community)
        for dim in range(interactions.num_dims):
            for node in members:
                numerator = sum(
                    interactions.get(node, other, dim)
                    for other in members
                    if other != node
                )
                denominator = sum(
                    interactions.get(members[i], members[j], dim)
                    for i in range(len(members))
                    for j in range(i + 1, len(members))
                )
                expected = numerator / denominator if denominator else 0.0
                assert interact(node, community, dim, interactions) == pytest.approx(
                    expected
                )

    def test_invalid_dimension_raises(self):
        _, interactions = random_stores(6)
        with pytest.raises(FeatureError):
            interact(0, frozenset({0, 1}), interactions.num_dims, interactions)
        with pytest.raises(FeatureError):
            interact(0, frozenset({0, 1}), -1, interactions)


class TestCommunityContainingIndex:
    """The lazy member index must be invisible except for speed."""

    def build_division(self) -> DivisionResult:
        result = DivisionResult()
        for ego in range(3):
            communities = []
            for index in range(3):
                members = frozenset(range(10 * index, 10 * index + 5))
                communities.append(
                    LocalCommunity(
                        ego=ego,
                        members=members,
                        tightness={m: 1.0 for m in members},
                        index=index,
                    )
                )
            result.communities_by_ego[ego] = communities
        return result

    def test_matches_linear_scan(self):
        division = self.build_division()
        for ego in range(3):
            for friend in range(-1, 30):
                expected = next(
                    (
                        community
                        for community in division.communities_by_ego[ego]
                        if friend in community.members
                    ),
                    None,
                )
                assert division.community_containing(ego, friend) is expected

    def test_unknown_ego_returns_none(self):
        division = self.build_division()
        assert division.community_containing(99, 1) is None

    def test_first_community_wins_on_overlap(self):
        """If a member somehow appears in two communities, list order rules."""
        members = frozenset({1, 2})
        first = LocalCommunity(ego=0, members=members, tightness={1: 1.0, 2: 1.0})
        second = LocalCommunity(
            ego=0, members=members, tightness={1: 0.5, 2: 0.5}, index=1
        )
        division = DivisionResult({0: [first, second]})
        assert division.community_containing(0, 1) is first

    def test_reassignment_detected_automatically(self):
        division = self.build_division()
        assert division.community_containing(0, 2) is not None
        division.communities_by_ego[0] = []  # new list object -> cache miss
        assert division.community_containing(0, 2) is None

    def test_append_detected_automatically(self):
        division = self.build_division()
        assert division.community_containing(0, 99) is None
        division.communities_by_ego[0].append(
            LocalCommunity(ego=0, members=frozenset({99}), tightness={99: 1.0}, index=3)
        )  # same list object, new length -> cache miss
        assert division.community_containing(0, 99) is not None

    def test_invalidate_index_after_inplace_replacement(self):
        division = self.build_division()
        assert division.community_containing(0, 99) is None
        division.communities_by_ego[0][0] = LocalCommunity(
            ego=0, members=frozenset({99}), tightness={99: 1.0}
        )  # same list, same length: the one case needing explicit invalidation
        division.invalidate_index()
        assert division.community_containing(0, 99) is not None

    def test_merge_produces_fresh_index(self):
        left = self.build_division()
        assert left.community_containing(0, 2) is not None  # warm the index
        right = DivisionResult(
            {
                7: [
                    LocalCommunity(
                        ego=7, members=frozenset({42}), tightness={42: 1.0}
                    )
                ]
            }
        )
        merged = left.merge(right)
        assert merged.community_containing(7, 42) is not None
        assert merged.community_containing(0, 2) is not None
