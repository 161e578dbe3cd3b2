"""Tests for the analysis package (CDF utilities and Section II statistics)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    common_group_cdf,
    community_size_cdf,
    empirical_cdf,
    interaction_count_cdf,
    interaction_rate_by_category,
    major_type_share,
    median,
    median_community_size,
    pairs_with_no_common_group,
    percentile,
    silent_pair_fraction,
    table1_rows,
)
from repro.experiments import exp_table1
from repro.exceptions import ExperimentError
from repro.types import MomentsCategory, RelationType


class TestCdfUtilities:
    def test_empirical_cdf_known_values(self):
        cdf = empirical_cdf([1, 2, 2, 3], points=[0, 1, 2, 3, 4])
        assert cdf == [0.0, 0.25, 0.75, 1.0, 1.0]

    def test_empirical_cdf_is_monotone(self):
        cdf = empirical_cdf([5, 1, 3, 3, 9], points=list(range(10)))
        assert cdf == sorted(cdf)

    def test_empirical_cdf_empty_sample(self):
        assert empirical_cdf([], points=[1, 2]) == [0.0, 0.0]

    def test_empirical_cdf_requires_points(self):
        with pytest.raises(ExperimentError):
            empirical_cdf([1, 2], points=[])

    def test_percentile_and_median(self):
        values = list(range(1, 101))
        assert median(values) == pytest.approx(50.5)
        assert percentile(values, 90) == pytest.approx(90.1, abs=0.2)
        assert percentile([], 50) == 0.0
        with pytest.raises(ExperimentError):
            percentile([1], 200)


class TestGroupStats:
    def test_cdf_per_type_monotone_and_bounded(self, tiny_workload):
        dataset = tiny_workload.dataset
        cdfs = common_group_cdf(dataset.groups, dataset.edge_types)
        for series in cdfs.values():
            assert series == sorted(series)
            assert series[-1] == pytest.approx(1.0)

    def test_colleagues_share_more_groups_than_family(self, tiny_workload):
        """Figure 2 shape: the colleague CDF lies below the family CDF at 0."""
        dataset = tiny_workload.dataset
        no_group = pairs_with_no_common_group(dataset.groups, dataset.edge_types)
        assert no_group[RelationType.COLLEAGUE] < no_group[RelationType.FAMILY]


class TestMomentsStats:
    def test_pictures_dominate_likes_for_all_types(self, tiny_workload):
        dataset = tiny_workload.dataset
        rates = interaction_rate_by_category(
            dataset.interactions, dataset.edge_types, behaviour="like"
        )
        for relation in RelationType.classification_targets():
            assert rates[relation][MomentsCategory.PICTURE] >= rates[relation][MomentsCategory.GAME]

    def test_schoolmates_like_games_most(self, tiny_workload):
        dataset = tiny_workload.dataset
        rates = interaction_rate_by_category(
            dataset.interactions, dataset.edge_types, behaviour="like"
        )
        game_rates = {
            relation: rates[relation][MomentsCategory.GAME]
            for relation in RelationType.classification_targets()
        }
        assert max(game_rates, key=game_rates.get) is RelationType.SCHOOLMATE

    def test_invalid_behaviour_rejected(self, tiny_workload):
        dataset = tiny_workload.dataset
        with pytest.raises(ValueError):
            interaction_rate_by_category(dataset.interactions, dataset.edge_types, "share")

    def test_interaction_cdf_monotone(self, tiny_workload):
        dataset = tiny_workload.dataset
        cdfs = interaction_count_cdf(dataset.interactions, dataset.edge_types)
        for series in cdfs.values():
            assert series == sorted(series)

    def test_silent_fraction_matches_paper_ballpark(self, tiny_workload):
        dataset = tiny_workload.dataset
        silent = silent_pair_fraction(dataset.interactions, dataset.edge_types)
        for value in silent.values():
            assert 0.4 <= value <= 0.8


class TestCommunityStats:
    def test_size_cdf_reaches_one(self, tiny_division):
        cdf = community_size_cdf(tiny_division, points=[1, 2, 4, 8, 16, 32, 64, 128, 256])
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf == sorted(cdf)

    def test_median_size_is_small(self, tiny_division):
        value = median_community_size(tiny_division)
        assert 1 <= value <= 30


class TestSurveyStats:
    def test_table1_rows_cover_all_first_categories(self, tiny_workload):
        rows = table1_rows(tiny_workload.survey)
        first_names = {row[0] for row in rows}
        assert {"Family Members", "Colleague", "Schoolmates", "Others"} <= first_names

    def test_format_table1_renders(self, tiny_workload):
        text = exp_table1.run(tiny_workload).to_text()
        assert "First Category" in text
        assert "Colleague" in text

    def test_major_type_share_close_to_paper(self, tiny_workload):
        share = major_type_share(tiny_workload.survey)
        assert 0.7 <= share <= 1.0
