"""Ablation benchmarks for the design choices called out in DESIGN.md.

* CommCNN kernel set: all three branches vs square-only.
* Feature-matrix row ordering: tightness-ordered vs arbitrary ordering.
* Phase III combiner: learned logistic regression vs the naive agreement rule.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import run_once
from repro.core import (
    CNNCommunityClassifier,
    CommCNNConfig,
    EdgeLabelIndex,
    FeatureMatrixBuilder,
    LoCEC,
    LoCECConfig,
    labeled_communities,
)
from repro.ml.metrics import accuracy, classification_report
from repro.ml.preprocessing import train_test_split_indices


def _community_split(bench_workload):
    dataset = bench_workload.dataset
    division = bench_workload.division()
    label_index = EdgeLabelIndex(bench_workload.labeled_edges)
    communities, labels = labeled_communities(division, label_index)
    labels = np.asarray(labels)
    train_idx, test_idx = train_test_split_indices(
        len(communities), test_fraction=0.25, seed=3, stratify=labels
    )
    builder = FeatureMatrixBuilder(dataset.features, dataset.interactions, k=20)
    return builder, communities, labels, train_idx, test_idx


def test_ablation_commcnn_kernels(benchmark, bench_workload):
    """Kernel ablation: the full square+wide+long CommCNN vs square-only."""
    builder, communities, labels, train_idx, test_idx = _community_split(bench_workload)
    config = CommCNNConfig(epochs=12, seed=0)

    def run_all() -> dict[str, float]:
        scores: dict[str, float] = {}
        variants = {
            "all_kernels": {},
            "square_only": {
                "include_wide_branch": False,
                "include_long_branch": False,
            },
        }
        for name, toggles in variants.items():
            classifier = CNNCommunityClassifier(builder, config=config, **toggles)
            classifier.fit(
                [communities[i] for i in train_idx], labels[train_idx].tolist()
            )
            predictions = classifier.predict([communities[i] for i in test_idx])
            scores[name] = accuracy(labels[test_idx], predictions)
        return scores

    scores = run_once(benchmark, run_all)
    assert scores["all_kernels"] > 0.4
    print("\ncommunity accuracy per kernel set:", scores)


def test_ablation_tightness_ordering(benchmark, bench_workload):
    """Row-ordering ablation: tightness-ordered truncation vs arbitrary order.

    Measured as classification accuracy of the CommCNN community classifier;
    tightness ordering should never be substantially worse.
    """
    builder, communities, labels, train_idx, test_idx = _community_split(bench_workload)
    config = CommCNNConfig(epochs=12, seed=0)

    def run_both() -> dict[str, float]:
        scores: dict[str, float] = {}
        # Ordered (paper) variant.
        ordered = CNNCommunityClassifier(builder, config=config)
        ordered.fit([communities[i] for i in train_idx], labels[train_idx].tolist())
        scores["tightness_ordered"] = accuracy(
            labels[test_idx], ordered.predict([communities[i] for i in test_idx])
        )
        # Arbitrary-order variant: neutralise tightness by overwriting it with a
        # constant, so members_by_tightness falls back to an arbitrary (repr) order.
        from dataclasses import replace

        def scramble(community):
            return replace(
                community, tightness={node: 0.5 for node in community.members}
            )

        scrambled = [scramble(community) for community in communities]
        arbitrary = CNNCommunityClassifier(builder, config=config)
        arbitrary.fit([scrambled[i] for i in train_idx], labels[train_idx].tolist())
        scores["arbitrary_order"] = accuracy(
            labels[test_idx], arbitrary.predict([scrambled[i] for i in test_idx])
        )
        return scores

    scores = run_once(benchmark, run_both)
    assert scores["tightness_ordered"] >= scores["arbitrary_order"] - 0.1
    print("\ncommunity accuracy per row ordering:", scores)


def test_ablation_combination_rule(benchmark, bench_workload):
    """Phase III ablation: learned LR combiner vs the naive agreement rule."""
    dataset = bench_workload.dataset
    config = LoCECConfig.locec_xgb()
    config.gbdt.num_rounds = 15
    pipeline = LoCEC(config)
    pipeline.fit(
        dataset.graph,
        dataset.features,
        dataset.interactions,
        bench_workload.train_edges,
        division=bench_workload.division(),
    )
    test_edges = [item.edge for item in bench_workload.test_edges]
    y_true = np.array([int(item.label) for item in bench_workload.test_edges])

    def run_both() -> dict[str, float]:
        learned = np.array([int(x) for x in pipeline.predict_edges(test_edges)])
        naive = pipeline.agreement_rule_predictions(test_edges)
        return {
            "logistic_regression": classification_report(y_true, learned).overall.f1,
            "agreement_rule": classification_report(y_true, naive).overall.f1,
        }

    scores = run_once(benchmark, run_both)
    assert scores["logistic_regression"] >= scores["agreement_rule"] - 0.05
    print("\nedge F1 per combination rule:", scores)
