"""Tests for the synthetic WeChat-like data generator."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.exceptions import DatasetError
from repro.synthetic import (
    WeChatConfig,
    generate_network,
    generate_profiles,
    make_workload,
    profiles_to_store,
    run_survey,
)
from repro.synthetic.groups import generate_groups
from repro.synthetic.network import PRINCIPAL_TYPE_PRIORITY
from repro.types import RelationType, canonical_edge


def type_shares(dataset) -> dict[RelationType, float]:
    """Share of the network's edges of each ground-truth type."""
    counts = Counter(dataset.edge_types.values())
    return {relation: count / len(dataset.edge_types) for relation, count in counts.items()}


class TestConfig:
    def test_defaults_validate(self):
        WeChatConfig().validate()

    def test_scale_presets(self):
        assert WeChatConfig.small().num_users == 300
        assert WeChatConfig.medium().num_users == 1200
        assert WeChatConfig.large().num_users == 4000

    def test_invalid_values(self):
        with pytest.raises(DatasetError):
            WeChatConfig(num_users=5).validate()
        with pytest.raises(DatasetError):
            WeChatConfig(random_edge_prob=2.0).validate()
        config = WeChatConfig()
        config.surveyed_user_fraction = 0.0
        with pytest.raises(DatasetError):
            config.validate()

    def test_principal_type_priority_order(self):
        assert PRINCIPAL_TYPE_PRIORITY[0] is RelationType.FAMILY
        assert PRINCIPAL_TYPE_PRIORITY[-1] is RelationType.OTHER


class TestProfiles:
    def test_profiles_have_expected_ranges(self):
        profiles = generate_profiles(200, random.Random(0))
        assert len(profiles) == 200
        for profile in profiles.values():
            assert profile.gender in (0, 1)
            assert 1 <= profile.age_bucket <= 6
            assert profile.tenure_years > 0
            assert profile.activity_level > 0

    def test_profiles_to_store(self):
        profiles = generate_profiles(10, random.Random(0))
        store = profiles_to_store(profiles)
        assert store.num_nodes == 10
        assert store.num_features == 4


class TestNetworkGeneration:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_network(WeChatConfig(num_users=200, seed=3))

    def test_deterministic_for_fixed_seed(self):
        a = generate_network(WeChatConfig(num_users=100, seed=5))
        b = generate_network(WeChatConfig(num_users=100, seed=5))
        assert a.graph == b.graph
        assert a.edge_types == b.edge_types

    def test_every_user_is_a_node(self, dataset):
        assert dataset.num_users == 200

    def test_every_edge_has_a_type(self, dataset):
        for edge in dataset.graph.edges():
            assert canonical_edge(*edge) in dataset.edge_types

    def test_every_typed_edge_exists_in_graph(self, dataset):
        for (u, v) in dataset.edge_types:
            assert dataset.graph.has_edge(u, v)

    def test_major_types_dominate(self, dataset):
        distribution = type_shares(dataset)
        major = sum(
            distribution.get(relation, 0.0)
            for relation in RelationType.classification_targets()
        )
        assert major > 0.75

    def test_colleague_edges_outnumber_schoolmate_edges(self, dataset):
        distribution = type_shares(dataset)
        assert distribution[RelationType.COLLEAGUE] > distribution[RelationType.SCHOOLMATE]

    def test_interaction_sparsity_matches_paper_ballpark(self, dataset):
        assert 0.45 <= dataset.interaction_sparsity() <= 0.75

    def test_family_circles_smaller_than_colleague_circles(self, dataset):
        family_sizes = [c.size for c in dataset.circles if c.circle_type is RelationType.FAMILY]
        colleague_sizes = [
            c.size for c in dataset.circles if c.circle_type is RelationType.COLLEAGUE
        ]
        assert sum(family_sizes) / len(family_sizes) < sum(colleague_sizes) / len(colleague_sizes)

    def test_interactions_only_on_existing_edges(self, dataset):
        for (u, v), _ in dataset.interactions.items():
            assert dataset.graph.has_edge(u, v)


class TestGroups:
    def test_groups_have_at_least_two_members(self, tiny_workload):
        for group in tiny_workload.dataset.groups:
            assert group.size >= 2

    def test_group_member_pairs_count(self):
        circles = [(RelationType.FAMILY, [1, 2, 3, 4])]
        config = WeChatConfig(num_users=20)
        config.groups[RelationType.FAMILY].groups_per_circle = 3.0
        config.groups[RelationType.FAMILY].member_participation = 1.0
        groups = generate_groups(circles, config, random.Random(0))
        assert len(groups) >= 1
        for group in groups:
            assert len(group.member_pairs()) == group.size * (group.size - 1) // 2

    def test_common_group_counts_symmetric_keys(self, tiny_workload):
        counts = tiny_workload.dataset.groups.common_group_counts()
        for (u, v), count in counts.items():
            assert count >= 1
            assert (u, v) == canonical_edge(u, v)


class TestSurvey:
    def test_survey_covers_major_share_of_surveyed_users_edges(self, tiny_workload):
        survey = tiny_workload.survey
        assert survey.num_labeled > 0
        assert len(survey.surveyed_users) > 0

    def test_labels_match_ground_truth(self, tiny_workload):
        dataset = tiny_workload.dataset
        for item in tiny_workload.survey.labeled_edges[:200]:
            assert item.label is dataset.edge_types[canonical_edge(item.u, item.v)]

    def test_first_category_ratios_sum_to_one(self, tiny_workload):
        ratios = tiny_workload.survey.first_category_ratios()
        assert sum(ratios.values()) == pytest.approx(1.0)

    def test_colleagues_are_the_largest_category(self, tiny_workload):
        ratios = tiny_workload.survey.first_category_ratios()
        assert max(ratios, key=ratios.get) is RelationType.COLLEAGUE

    def test_major_type_edges_filters_other(self, tiny_workload):
        major = tiny_workload.survey.major_type_edges()
        assert all(item.label is not RelationType.OTHER for item in major)

    def test_second_categories_consistent_with_first(self, tiny_workload):
        for item in tiny_workload.survey.labeled_edges:
            if item.second_category is not None:
                assert item.second_category.first_category is item.label

    def test_survey_reproducible_with_seed(self):
        dataset = generate_network(WeChatConfig(num_users=150, seed=2))
        a = run_survey(dataset, seed=11)
        b = run_survey(dataset, seed=11)
        assert [x.edge for x in a.labeled_edges] == [x.edge for x in b.labeled_edges]


class TestWorkloads:
    def test_make_workload_scales(self):
        workload = make_workload("tiny", seed=0)
        assert workload.dataset.num_users == 120
        with pytest.raises(ValueError):
            make_workload("gigantic")

    def test_dataset_repr_is_sizes_only(self):
        """A failing property test prints its fixture values, so the dataset's
        repr must not bury the drawn example under a dump of its fields."""
        dataset = make_workload("tiny", seed=0).dataset
        assert len(repr(dataset)) < 200
        assert repr(dataset).startswith("SocialNetworkDataset(num_users=120, ")

    def test_split_is_disjoint(self, tiny_workload):
        train_edges = {item.edge for item in tiny_workload.train_edges}
        test_edges = {item.edge for item in tiny_workload.test_edges}
        assert train_edges.isdisjoint(test_edges)

    def test_labeled_fraction_positive(self, tiny_workload):
        assert 0.0 < tiny_workload.labeled_fraction < 1.0

    def test_subsample_train(self, tiny_workload):
        subset = tiny_workload.subsample_train(0.25)
        assert len(subset) == max(1, round(0.25 * len(tiny_workload.train_edges)))
        assert set(item.edge for item in subset) <= {
            item.edge for item in tiny_workload.train_edges
        }
        with pytest.raises(ValueError):
            tiny_workload.subsample_train(0.0)

    def test_division_cache_reused(self, tiny_workload):
        first = tiny_workload.division()
        second = tiny_workload.division()
        assert first is second
