"""LoCEC core: the paper's three-phase edge-classification framework."""

from repro.core.aggregation import (
    CommunityFeatureMatrix,
    FeatureMatrixBuilder,
    interaction_feature_vector,
)
from repro.core.combination import (
    AgreementEdgeLabeler,
    EdgeFeatureBuilder,
    EdgeLabeler,
    community_key,
)
from repro.core.commcnn import build_commcnn_classifier
from repro.core.community_classifier import (
    CNNCommunityClassifier,
    CommunityClassifier,
    GBDTCommunityClassifier,
)
from repro.core.config import CommCNNConfig, GBDTConfig, LoCECConfig
from repro.core.division import (
    DivisionResult,
    LocalCommunity,
    divide,
)
from repro.core.labels import (
    EdgeLabelIndex,
    community_ground_truth,
    labeled_communities,
    majority_label,
    split_labeled_edges,
)
from repro.core.pipeline import FitSummary, LoCEC, PhaseTimings
from repro.core.results import (
    CommunityClassification,
    EdgeClassification,
    LoCECResult,
)

__all__ = [
    "LoCEC",
    "LoCECConfig",
    "CommCNNConfig",
    "GBDTConfig",
    "FitSummary",
    "PhaseTimings",
    "divide",
    "DivisionResult",
    "LocalCommunity",
    "interaction_feature_vector",
    "FeatureMatrixBuilder",
    "CommunityFeatureMatrix",
    "build_commcnn_classifier",
    "CommunityClassifier",
    "CNNCommunityClassifier",
    "GBDTCommunityClassifier",
    "EdgeFeatureBuilder",
    "EdgeLabeler",
    "AgreementEdgeLabeler",
    "community_key",
    "EdgeLabelIndex",
    "community_ground_truth",
    "labeled_communities",
    "majority_label",
    "split_labeled_edges",
    "LoCECResult",
    "CommunityClassification",
    "EdgeClassification",
]
