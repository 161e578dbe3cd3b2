"""Table V — local community classification performance (LoCEC-XGB vs LoCEC-CNN)."""

from __future__ import annotations

import numpy as np

from repro.core import (
    CNNCommunityClassifier,
    EdgeLabelIndex,
    FeatureMatrixBuilder,
    GBDTCommunityClassifier,
    LoCECConfig,
    labeled_communities,
)
from repro.experiments.common import ExperimentResult, report_to_rows
from repro.ml.metrics import classification_report
from repro.ml.preprocessing import train_test_split_indices
from repro.synthetic.workloads import ExperimentWorkload, make_workload


def run(
    workload: ExperimentWorkload | None = None,
    scale: str = "small",
    seed: int = 0,
    k: int = 20,
    cnn_epochs: int = 40,
) -> ExperimentResult:
    """Regenerate Table V: classify local communities directly.

    Ground-truth community labels come from the majority type of the ego's
    labeled friend edges (exactly the paper's protocol); the labeled
    communities are split 80/20.  Expected shape: LoCEC-CNN beats LoCEC-XGB
    by a few F1 points, and both are slightly above their edge-level scores.
    """
    workload = workload or make_workload(scale=scale, seed=seed)
    dataset = workload.dataset
    division = workload.division()
    label_index = EdgeLabelIndex(workload.labeled_edges)
    communities, labels = labeled_communities(division, label_index)
    if len(communities) < 10:
        raise ValueError("not enough labeled communities for a meaningful split")
    labels_array = np.asarray(labels)
    train_idx, test_idx = train_test_split_indices(
        len(communities), test_fraction=0.2, seed=seed, stratify=labels_array
    )
    train_comm = [communities[i] for i in train_idx]
    test_comm = [communities[i] for i in test_idx]
    y_train = labels_array[train_idx]
    y_true = labels_array[test_idx]

    builder = FeatureMatrixBuilder(dataset.features, dataset.interactions, k=k)
    config = LoCECConfig()
    config.cnn.epochs = cnn_epochs

    rows: list[dict[str, object]] = []
    gbdt = GBDTCommunityClassifier(builder, config=config.gbdt)
    gbdt.fit(train_comm, y_train.tolist())
    report_xgb = classification_report(y_true, gbdt.predict(test_comm))
    rows.extend(report_to_rows("LoCEC-XGB", report_xgb))

    cnn = CNNCommunityClassifier(builder, config=config.cnn)
    cnn.fit(train_comm, y_train.tolist())
    report_cnn = classification_report(y_true, cnn.predict(test_comm))
    rows.extend(report_to_rows("LoCEC-CNN", report_cnn))

    return ExperimentResult(
        experiment_id="table5",
        title="Local community classification performance",
        rows=rows,
        notes=f"{len(communities)} labeled local communities, 80/20 split",
    )
