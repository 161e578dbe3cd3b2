"""Integration tests for the full LoCEC pipeline (Algorithm 2)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import LoCEC, LoCECConfig
from repro.core.aggregation import reference_feature_matrix, reference_statistic_vector
from repro.exceptions import NotFittedError, PipelineError
from repro.synthetic import make_workload
from repro.types import RelationType
from tests.division_reference import reference_divide
from tests.exact_reference import ReferenceBoostedClassifier
from tests.nn_reference import loop_commcnn


@pytest.fixture(scope="module")
def fitted_xgb(request):
    """A LoCEC-XGB pipeline fitted on the tiny shared workload."""
    workload = request.getfixturevalue("tiny_workload")
    config = LoCECConfig.locec_xgb()
    config.gbdt.num_rounds = 15
    pipeline = LoCEC(config)
    pipeline.fit(
        workload.dataset.graph,
        workload.dataset.features,
        workload.dataset.interactions,
        workload.train_edges,
        division=workload.division(),
    )
    return workload, pipeline


class TestPipelineFit:
    def test_fit_requires_labeled_edges(self, tiny_workload):
        pipeline = LoCEC(LoCECConfig.locec_xgb())
        with pytest.raises(PipelineError):
            pipeline.fit(
                tiny_workload.dataset.graph,
                tiny_workload.dataset.features,
                tiny_workload.dataset.interactions,
                [],
            )

    def test_unfitted_pipeline_refuses_to_predict(self):
        with pytest.raises(NotFittedError):
            LoCEC().predict_edges([(1, 2)])

    def test_fit_summary_counts(self, fitted_xgb):
        workload, pipeline = fitted_xgb
        summary = pipeline.fit_summary_
        assert summary is not None
        assert summary.num_egos == workload.dataset.num_users
        assert summary.num_communities > summary.num_egos  # several circles per ego
        assert summary.num_labeled_communities > 0
        assert summary.num_training_edges == len(workload.train_edges)
        assert summary.timings.total > 0.0

    def test_phase_timings_dict(self, fitted_xgb):
        _, pipeline = fitted_xgb
        timings = pipeline.fit_summary_.timings.as_dict()
        assert set(timings) == {
            "training",
            "phase1_division",
            "phase2_aggregation",
            "phase3_combination",
            "total",
        }


    @pytest.mark.parametrize("model", ["xgb", "cnn"])
    def test_training_is_timed_apart_from_aggregation(
        self, tiny_workload, ticking_clock, model
    ):
        config = getattr(LoCECConfig, f"locec_{model}")()
        config.gbdt.num_rounds = 4
        config.cnn.epochs = 1
        pipeline = LoCEC(config, clock=ticking_clock).fit(
            tiny_workload.dataset.graph,
            tiny_workload.dataset.features,
            tiny_workload.dataset.interactions,
            tiny_workload.train_edges,
            division=tiny_workload.division(),
        )
        timings = pipeline.fit_summary_.timings
        assert timings.training > 0.0
        assert min(timings.division, timings.aggregation, timings.combination) > 0.0
        assert timings.total == (
            timings.division
            + timings.training
            + timings.aggregation
            + timings.combination
        )


class TestPipelinePredictions:
    def test_predict_edges_returns_relation_types(self, fitted_xgb):
        workload, pipeline = fitted_xgb
        edges = [item.edge for item in workload.test_edges[:10]]
        predictions = pipeline.predict_edges(edges)
        assert len(predictions) == len(edges)
        assert all(isinstance(label, RelationType) for label in predictions)
        assert all(
            label in RelationType.classification_targets() for label in predictions
        )

    def test_predict_proba_rows_sum_to_one(self, fitted_xgb):
        workload, pipeline = fitted_xgb
        edges = [item.edge for item in workload.test_edges[:10]]
        probabilities = pipeline.predict_edge_proba(edges)
        assert probabilities.shape == (len(edges), 3)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(len(edges)), atol=1e-9)

    def test_single_edge_prediction(self, fitted_xgb):
        workload, pipeline = fitted_xgb
        u, v = workload.test_edges[0].edge
        assert isinstance(pipeline.predict_edge(u, v), RelationType)

    def test_evaluation_beats_majority_baseline(self, fitted_xgb):
        workload, pipeline = fitted_xgb
        report = pipeline.evaluate(workload.test_edges)
        assert report.overall is not None
        # The aggregated-feature pipeline must clearly beat a majority guess.
        assert report.overall.f1 > 0.6

    @pytest.mark.slow
    def test_agreement_rule_is_usable_but_not_better(self):
        """Accuracy means over seeds 0-4: one ~50-edge test set moves by
        more than the margin when a single edge flips."""
        naive_accuracy, learned_accuracy = [], []
        for seed in range(5):
            workload = make_workload("tiny", seed=seed)
            config = LoCECConfig.locec_xgb()
            config.gbdt.num_rounds = 15
            pipeline = LoCEC(config).fit(
                workload.dataset.graph,
                workload.dataset.features,
                workload.dataset.interactions,
                workload.train_edges,
            )
            edges = [item.edge for item in workload.test_edges]
            y_true = np.array([int(item.label) for item in workload.test_edges])
            naive = pipeline.agreement_rule_predictions(edges)
            learned = np.array([int(x) for x in pipeline.predict_edges(edges)])
            naive_accuracy.append(float((naive == y_true).mean()))
            learned_accuracy.append(float((learned == y_true).mean()))
        assert np.mean(naive_accuracy) > 0.3
        assert np.mean(learned_accuracy) >= np.mean(naive_accuracy) - 0.05


class TestNetworkClassification:
    def test_classify_communities_covers_division(self, fitted_xgb):
        workload, pipeline = fitted_xgb
        classifications = pipeline.classify_communities()
        assert len(classifications) == workload.division().num_communities
        for item in classifications[:20]:
            assert item.label in RelationType.classification_targets()
            assert len(item.probabilities) == 3

    def test_classify_network_distributions(self, fitted_xgb):
        workload, pipeline = fitted_xgb
        result = pipeline.classify_network()
        assert result.num_edges == workload.dataset.num_edges
        community_dist = result.community_type_distribution()
        edge_dist = result.edge_type_distribution()
        assert sum(community_dist.values()) == pytest.approx(1.0)
        assert sum(edge_dist.values()) == pytest.approx(1.0)

    def test_classify_network_subset_of_edges(self, fitted_xgb):
        workload, pipeline = fitted_xgb
        some_edges = [item.edge for item in workload.test_edges[:5]]
        result = pipeline.classify_network(edges=some_edges)
        assert result.num_edges == 5


@pytest.mark.slow
@pytest.mark.parametrize("model", ["xgb", "cnn"])
def test_every_layer_of_a_default_fit_matches_its_oracle(tiny_workload, model):
    """No pipeline runs the oracles any more, so arbitrate layer by layer:
    recompute each layer of a default ``fit`` with its reference, on the
    pipeline's own intermediates, bit for bit."""
    workload = tiny_workload
    graph, features = workload.dataset.graph, workload.dataset.features
    interactions = workload.dataset.interactions
    config = getattr(LoCECConfig, f"locec_{model}")()
    pipeline = LoCEC(config).fit(graph, features, interactions, workload.train_edges)

    oracle = reference_divide(graph)
    assert oracle.communities_by_ego == pipeline.division_.communities_by_ego

    communities = list(pipeline.division_.all_communities())
    builder = pipeline.feature_builder_
    for community, routed in zip(communities, builder.feature_matrices(communities)):
        reference = reference_feature_matrix(community, features, interactions, config.k)
        assert reference.member_order == routed.member_order
        assert np.array_equal(reference.matrix, routed.matrix)
    assert np.array_equal(
        [reference_statistic_vector(c, features, interactions) for c in communities],
        builder.statistic_vectors(communities),
    )

    fitted = pipeline.community_classifier_
    train, labels = pipeline._train_communities, np.asarray(pipeline._train_labels)
    reference = copy.copy(fitted)
    if model == "xgb":
        reference._model = ReferenceBoostedClassifier(
            num_rounds=config.gbdt.num_rounds,
            learning_rate=config.gbdt.learning_rate,
            max_depth=config.gbdt.max_depth,
            min_samples_leaf=config.gbdt.min_samples_leaf,
            num_classes=fitted.num_classes,
        ).fit(builder.statistic_vectors(train), labels)
    else:
        reference._classifier = loop_commcnn(
            config.k, builder.num_columns, fitted.num_classes, config.cnn
        ).fit(builder.matrices_as_tensor(train) / fitted._column_scale, labels)
    assert np.array_equal(
        reference.result_vectors(communities), fitted.result_vectors(communities)
    )
