"""Dataset analyses reproducing the paper's Section II and parameter studies."""

from repro.analysis.cdf import empirical_cdf, median, percentile
from repro.analysis.community_stats import (
    community_size_cdf,
    mean_size_by_type,
    median_community_size,
    type_distributions,
)
from repro.analysis.group_stats import (
    common_group_cdf,
    common_groups_per_pair,
    pairs_with_no_common_group,
)
from repro.analysis.moments_stats import (
    interaction_count_cdf,
    interaction_rate_by_category,
    silent_pair_fraction,
    total_interactions_per_pair,
)
from repro.analysis.survey_stats import format_table1, major_type_share, table1_rows

__all__ = [
    "empirical_cdf",
    "percentile",
    "median",
    "common_group_cdf",
    "common_groups_per_pair",
    "pairs_with_no_common_group",
    "interaction_rate_by_category",
    "interaction_count_cdf",
    "total_interactions_per_pair",
    "silent_pair_fraction",
    "community_size_cdf",
    "median_community_size",
    "type_distributions",
    "mean_size_by_type",
    "table1_rows",
    "major_type_share",
    "format_table1",
]
