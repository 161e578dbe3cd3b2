"""From-scratch machine-learning substrate (GBDT, logistic regression, CNN, metrics)."""

from repro.ml.base import one_hot, softmax
from repro.ml.forest import FeaturePresort, ForestTensor, RegressionTreeConfig, TreeTensor
from repro.ml.gbdt import HIST_AUTO_MIN_ROWS, GradientBoostedClassifier
from repro.ml.hist import BinnedDataset, HistTreeGrower
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import (
    accuracy,
    classification_report,
    format_report,
    precision_recall_f1,
    weighted_prf,
)
from repro.ml.preprocessing import train_test_split_indices

__all__ = [
    "softmax",
    "one_hot",
    "LogisticRegression",
    "GradientBoostedClassifier",
    "RegressionTreeConfig",
    "HIST_AUTO_MIN_ROWS",
    "FeaturePresort",
    "ForestTensor",
    "TreeTensor",
    "BinnedDataset",
    "HistTreeGrower",
    "accuracy",
    "classification_report",
    "format_report",
    "precision_recall_f1",
    "weighted_prf",
    "train_test_split_indices",
]
