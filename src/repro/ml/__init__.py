"""From-scratch machine-learning substrate (GBDT, logistic regression, CNN, metrics)."""

from repro.ml.base import one_hot, softmax
from repro.ml.forest import (
    HIST_AUTO_MIN_ROWS,
    ML_BACKENDS,
    FeaturePresort,
    ForestTensor,
    TreeTensor,
    resolve_ml_backend,
)
from repro.ml.gbdt import GradientBoostedClassifier
from repro.ml.hist import BinnedDataset, HistTreeGrower
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import (
    accuracy,
    classification_report,
    confusion_matrix,
    format_report,
    macro_f1,
    precision_recall_f1,
    weighted_prf,
)
from repro.ml.preprocessing import train_test_split_indices
from repro.ml.tree import GradientRegressionTree, RegressionTreeConfig

__all__ = [
    "softmax",
    "one_hot",
    "LogisticRegression",
    "GradientBoostedClassifier",
    "GradientRegressionTree",
    "RegressionTreeConfig",
    "ML_BACKENDS",
    "HIST_AUTO_MIN_ROWS",
    "FeaturePresort",
    "ForestTensor",
    "TreeTensor",
    "BinnedDataset",
    "HistTreeGrower",
    "resolve_ml_backend",
    "accuracy",
    "classification_report",
    "confusion_matrix",
    "format_report",
    "macro_f1",
    "precision_recall_f1",
    "weighted_prf",
    "train_test_split_indices",
]
