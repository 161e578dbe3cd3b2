"""Tests for the comparative methods: ProbWP, Economix, plain XGBoost,
group-name rules and the advertising targeting policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    Economix,
    GroupNameRuleClassifier,
    ProbWP,
    XGBoostEdgeClassifier,
    classify_group_name,
    relation_targeting,
    type_aware_targeting,
)
from repro.exceptions import NotFittedError, PipelineError
from repro.graph import Graph
from repro.synthetic.groups import ChatGroup, GroupCollection
from repro.types import LabeledEdge, RelationType, canonical_edge


@pytest.fixture(scope="module")
def tiny_data(request):
    workload = request.getfixturevalue("tiny_workload")
    return workload


def _accuracy(predictions, test_edges):
    y_true = np.array([int(item.label) for item in test_edges])
    y_pred = np.array([int(label) for label in predictions])
    return float((y_true == y_pred).mean())


class TestProbWP:
    def test_requires_labels(self):
        with pytest.raises(PipelineError):
            ProbWP().fit(Graph(edges=[(1, 2)]), [])

    def test_invalid_configuration(self):
        with pytest.raises(PipelineError):
            ProbWP(num_hashes=0)

    def test_structural_similarity_properties(self, two_cliques_graph):
        labels = [LabeledEdge(0, 1, RelationType.FAMILY)]
        model = ProbWP(num_hashes=64, seed=0).fit(two_cliques_graph, labels)
        same_clique = model.structural_similarity(0, 1)
        cross_clique = model.structural_similarity(0, 7)
        assert 0.0 <= cross_clique <= same_clique <= 1.0
        assert model.structural_similarity(0, "unknown") == 0.0

    def test_known_edge_returns_its_label(self, two_cliques_graph):
        labels = [LabeledEdge(0, 1, RelationType.SCHOOLMATE)]
        model = ProbWP(seed=0).fit(two_cliques_graph, labels)
        assert model.predict_edge(1, 0) is RelationType.SCHOOLMATE

    def test_propagates_within_dense_block(self, two_cliques_graph):
        labels = [
            LabeledEdge(0, 1, RelationType.FAMILY),
            LabeledEdge(1, 2, RelationType.FAMILY),
            LabeledEdge(4, 5, RelationType.COLLEAGUE),
            LabeledEdge(5, 6, RelationType.COLLEAGUE),
        ]
        model = ProbWP(seed=0).fit(two_cliques_graph, labels)
        assert model.predict_edge(0, 2) is RelationType.FAMILY
        assert model.predict_edge(6, 7) is RelationType.COLLEAGUE

    def test_beats_chance_on_synthetic_network(self, tiny_data):
        model = ProbWP(seed=0).fit(tiny_data.dataset.graph, tiny_data.train_edges)
        predictions = model.predict([item.edge for item in tiny_data.test_edges])
        assert _accuracy(predictions, tiny_data.test_edges) > 0.45

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            ProbWP().predict_edge(1, 2)


class TestEconomix:
    def test_requires_labels(self, tiny_data):
        with pytest.raises(PipelineError):
            Economix().fit(tiny_data.dataset.graph, tiny_data.dataset.interactions, [])

    def test_invalid_configuration(self):
        with pytest.raises(PipelineError):
            Economix(rank=0)

    def test_probabilities_normalised(self, tiny_data):
        model = Economix().fit(
            tiny_data.dataset.graph, tiny_data.dataset.interactions, tiny_data.train_edges
        )
        probabilities = model.predict_proba([item.edge for item in tiny_data.test_edges[:10]])
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(10), atol=1e-9)

    def test_beats_chance_on_synthetic_network(self, tiny_data):
        model = Economix().fit(
            tiny_data.dataset.graph, tiny_data.dataset.interactions, tiny_data.train_edges
        )
        predictions = model.predict([item.edge for item in tiny_data.test_edges])
        assert _accuracy(predictions, tiny_data.test_edges) > 0.45

    def test_unfitted_raises(self, tiny_data):
        with pytest.raises(NotFittedError):
            Economix().predict([(1, 2)])


@pytest.mark.slow
class TestXGBoostEdge:
    def test_requires_labels(self, tiny_data):
        with pytest.raises(PipelineError):
            XGBoostEdgeClassifier().fit(
                tiny_data.dataset.features, tiny_data.dataset.interactions, []
            )

    def test_beats_chance_on_synthetic_network(self, tiny_data):
        model = XGBoostEdgeClassifier(num_rounds=20).fit(
            tiny_data.dataset.features,
            tiny_data.dataset.interactions,
            tiny_data.train_edges,
        )
        predictions = model.predict([item.edge for item in tiny_data.test_edges])
        assert _accuracy(predictions, tiny_data.test_edges) > 0.4

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            XGBoostEdgeClassifier().predict([(1, 2)])

    def test_sparsity_hurts_recall_versus_locec(self, tiny_data):
        """The paper's central claim: raw edge features lose to aggregated ones."""
        from repro.core import LoCEC, LoCECConfig
        from repro.ml.metrics import classification_report

        raw = XGBoostEdgeClassifier(num_rounds=20).fit(
            tiny_data.dataset.features,
            tiny_data.dataset.interactions,
            tiny_data.train_edges,
        )
        config = LoCECConfig.locec_xgb()
        config.gbdt.num_rounds = 15
        locec = LoCEC(config)
        locec.fit(
            tiny_data.dataset.graph,
            tiny_data.dataset.features,
            tiny_data.dataset.interactions,
            tiny_data.train_edges,
            division=tiny_data.division(),
        )
        test_edges = [item.edge for item in tiny_data.test_edges]
        y_true = np.array([int(item.label) for item in tiny_data.test_edges])
        raw_report = classification_report(
            y_true, np.array([int(x) for x in raw.predict(test_edges)])
        )
        locec_report = classification_report(
            y_true, np.array([int(x) for x in locec.predict_edges(test_edges)])
        )
        assert locec_report.overall.f1 > raw_report.overall.f1


class TestGroupNameRules:
    def test_classify_group_name_patterns(self):
        assert classify_group_name("Wang Family Reunion") is RelationType.FAMILY
        assert classify_group_name("R&D Department") is RelationType.COLLEAGUE
        assert classify_group_name("Class of 2009 Middle School") is RelationType.SCHOOLMATE
        assert classify_group_name("Happy Group 17") is None

    def test_predict_pairs_only_from_indicative_groups(self):
        groups = GroupCollection(
            groups=[
                ChatGroup(0, "Li Family", frozenset({1, 2, 3}), RelationType.FAMILY),
                ChatGroup(1, "Weekend Plans 3", frozenset({4, 5}), RelationType.OTHER),
            ]
        )
        predictions = GroupNameRuleClassifier(groups).predict_pairs()
        assert canonical_edge(1, 2) in predictions
        assert canonical_edge(4, 5) not in predictions
        assert all(p.label is RelationType.FAMILY for p in predictions.values())

    def test_evaluation_high_precision_low_recall(self, tiny_data):
        classifier = GroupNameRuleClassifier(tiny_data.dataset.groups)
        results = classifier.evaluate(tiny_data.dataset.edge_types)
        for precision, recall, _ in results.values():
            assert recall < 0.5
            if precision > 0:
                assert precision > 0.6

    def test_evaluation_keys_are_major_types(self, tiny_data):
        classifier = GroupNameRuleClassifier(tiny_data.dataset.groups)
        results = classifier.evaluate(tiny_data.dataset.edge_types)
        assert set(results) == set(RelationType.classification_targets())


class TestAdTargetingPolicies:
    @pytest.fixture
    def star_graph(self):
        graph = Graph()
        for friend in range(1, 7):
            graph.add_edge(0, friend)
        return graph

    def test_relation_targeting_picks_top_scored_friends(self, star_graph):
        audience = relation_targeting(star_graph, [0], lambda node: -node, 3)
        assert audience == [1, 2, 3]

    def test_relation_targeting_excludes_seeds(self, star_graph):
        audience = relation_targeting(star_graph, [0, 1], lambda node: 1.0, 10)
        assert 0 not in audience and 1 not in audience

    def test_type_aware_targeting_prefers_matching_type(self, star_graph):
        labels = {
            canonical_edge(0, friend): (
                RelationType.FAMILY if friend in (4, 5) else RelationType.COLLEAGUE
            )
            for friend in range(1, 7)
        }
        audience = type_aware_targeting(
            star_graph, [0], lambda node: -node, 2, labels, RelationType.FAMILY
        )
        assert set(audience) == {4, 5}

    def test_type_aware_targeting_falls_back_when_pool_too_small(self, star_graph):
        labels = {canonical_edge(0, 1): RelationType.FAMILY}
        audience = type_aware_targeting(
            star_graph, [0], lambda node: -node, 4, labels, RelationType.FAMILY
        )
        assert 1 in audience
        assert len(audience) == 4
