"""Synthetic WeChat-like data generation (substitute for the proprietary dataset)."""

from repro.synthetic.config import (
    CircleConfig,
    GroupConfig,
    InteractionProfile,
    WeChatConfig,
)
from repro.synthetic.groups import ChatGroup, GroupCollection, generate_groups
from repro.synthetic.interactions_gen import sample_interaction_delta
from repro.synthetic.network import (
    Circle,
    SocialNetworkDataset,
    generate_network,
)
from repro.synthetic.survey import SurveyResult, run_survey
from repro.synthetic.users import UserProfile, generate_profiles, profiles_to_store
from repro.synthetic.workloads import ExperimentWorkload, make_workload

__all__ = [
    "WeChatConfig",
    "CircleConfig",
    "GroupConfig",
    "InteractionProfile",
    "Circle",
    "SocialNetworkDataset",
    "generate_network",
    "ChatGroup",
    "GroupCollection",
    "generate_groups",
    "SurveyResult",
    "run_survey",
    "UserProfile",
    "generate_profiles",
    "profiles_to_store",
    "ExperimentWorkload",
    "make_workload",
    "sample_interaction_delta",
]
