"""Online serving layer: incremental updates, parity, chaos, sessions.

The parity suite asserts the serving layer's core contract:
``fit(G)`` followed by ``apply_updates(Δ)`` is **bit-identical** to a
from-scratch ``fit(G + Δ)``.  Baselines are built by *re-running the
deterministic generator* and mutating the fresh inputs the same way.  A
``deepcopy`` of a fitted pipeline is an equal baseline too: division is a
function of the graph's value, not of its insertion history, so the
generated fault schedules write to copies of one fit.
"""

from __future__ import annotations

import copy
import itertools
import statistics
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline_module
import repro.runtime.executor as executor_module
from repro.clock import FakeClock
from repro.core import LoCEC, LoCECConfig
from repro.core.combination import community_key
from repro.core.labels import EdgeLabelIndex, labeled_communities
from repro.exceptions import (
    DimensionMismatchError,
    EdgeNotFoundError,
    FeatureError,
    NotFittedError,
    PipelineError,
    SelfLoopError,
)
from repro.graph import Graph, InteractionStore, NodeFeatureStore
from repro.ml.logistic import LogisticRegression
from repro.runtime import Fault, FaultPlan
from repro.runtime.executor import ShardedDivisionExecutor
from repro.serve import ServingSession, StreamingMoments, replay_traffic
from repro.synthetic import make_workload
from repro.types import LabeledEdge, node_key


def _config(detector="label_propagation", model="xgb"):
    maker = LoCECConfig.locec_xgb if model == "xgb" else LoCECConfig.locec_cnn
    config = maker(community_detector=detector)
    config.gbdt.num_rounds = 8
    config.cnn.epochs = 2
    return config


def _fit(config, graph, features, interactions, labeled_edges):
    return LoCEC(config).fit(graph, features, interactions, labeled_edges)


def _first_non_edge(graph):
    nodes = list(graph.nodes())
    return next(
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if not graph.has_edge(u, v)
    )


def _choose_deltas(graph, features, interactions):
    """Deterministic delta batch: one add, one remove, one interaction
    delta on an already-interacting pair, one feature replacement."""
    nodes = list(graph.nodes())
    added = _first_non_edge(graph)
    removed = next(edge for edge in graph.edges() if edge != added)
    pair = next(edge for edge, vector in interactions.items() if vector.any())
    delta = np.full(interactions.num_dims, 2.0)
    feat_node = nodes[3]
    new_feat = np.asarray(features.get_view(feat_node)) + 1.0
    return added, removed, pair, delta, feat_node, new_feat


def _apply_to_inputs(graph, features, interactions, deltas):
    """Mutate pristine inputs the way ``apply_updates`` would."""
    added, removed, pair, delta, feat_node, new_feat = deltas
    graph.add_edge(*added)
    graph.remove_edge(*removed)
    interactions.set_vector(pair[0], pair[1], interactions.vector(*pair) + delta)
    features.set(feat_node, new_feat)


def _assert_bit_identical(incremental, scratch, query_edges):
    div_a = incremental.division_.communities_by_ego
    div_b = scratch.division_.communities_by_ego
    assert list(div_a) == list(div_b)
    assert div_a == div_b
    rv_a = incremental.edge_feature_builder_.result_vectors
    rv_b = scratch.edge_feature_builder_.result_vectors
    assert set(rv_a) == set(rv_b)
    for key in rv_a:
        assert np.array_equal(rv_a[key], rv_b[key]), key
    assert np.array_equal(
        incremental.predict_edge_proba(query_edges),
        scratch.predict_edge_proba(query_edges),
    )


class TestIncrementalParity:
    @pytest.mark.parametrize(
        "detector", ["girvan_newman", "label_propagation", "louvain"]
    )
    def test_apply_updates_matches_scratch_fit(self, detector):
        workload = make_workload("tiny", seed=1)
        dataset = workload.dataset
        deltas = _choose_deltas(dataset.graph, dataset.features, dataset.interactions)
        with _fit(
            _config(detector),
            dataset.graph,
            dataset.features,
            dataset.interactions,
            workload.train_edges,
        ) as incremental:
            added, removed, pair, delta, feat_node, new_feat = deltas
            report = incremental.apply_updates(
                added_edges=[added],
                removed_edges=[removed],
                interaction_deltas=[(pair[0], pair[1], delta)],
                feature_updates=[(feat_node, new_feat)],
            )
            assert not report.degraded
            assert report.num_dirty_egos > 0

            baseline = make_workload("tiny", seed=1)  # identical history
            _apply_to_inputs(
                baseline.dataset.graph,
                baseline.dataset.features,
                baseline.dataset.interactions,
                deltas,
            )
            with _fit(
                _config(detector),
                baseline.dataset.graph,
                baseline.dataset.features,
                baseline.dataset.interactions,
                baseline.train_edges,
            ) as scratch:
                _assert_bit_identical(
                    incremental, scratch, [item.edge for item in workload.test_edges]
                )

    def test_apply_updates_matches_scratch_fit_cnn(self):
        """A warm CommCNN write re-scores only the communities it dirtied,
        and still equals a from-scratch fit bit for bit: CommCNN scores in
        fixed-shape blocks, so a row's ``r_C`` does not depend on its batch."""
        workload = make_workload("tiny", seed=1)
        dataset = workload.dataset
        delta = np.full(dataset.interactions.num_dims, 3.0)
        with _fit(
            _config(model="cnn"),
            dataset.graph,
            dataset.features,
            dataset.interactions,
            workload.train_edges,
        ) as incremental:
            pair = _warm_pair(incremental, workload)
            total = sum(1 for _ in incremental.division_.all_communities())
            report = incremental.apply_updates(
                interaction_deltas=[(pair[0], pair[1], delta)]
            )
            assert not report.classifier_refit
            assert 0 < report.num_rescored_communities < total
            baseline = make_workload("tiny", seed=1)
            inter = baseline.dataset.interactions
            inter.set_vector(pair[0], pair[1], inter.vector(*pair) + delta)
            with _fit(
                _config(model="cnn"),
                baseline.dataset.graph,
                baseline.dataset.features,
                inter,
                baseline.train_edges,
            ) as scratch:
                _assert_bit_identical(
                    incremental, scratch, [item.edge for item in workload.test_edges]
                )

    def test_apply_updates_matches_scratch_fit_string_labels(self):
        def relabeled():
            workload = make_workload("tiny", seed=1)
            dataset = workload.dataset
            rename = {node: f"user:{node}" for node in dataset.graph.nodes()}
            graph = Graph(nodes=(rename[n] for n in dataset.graph.nodes()))
            for u, v in dataset.graph.edges():
                graph.add_edge(rename[u], rename[v])
            features = NodeFeatureStore(dataset.features.feature_names)
            for node in dataset.features.nodes():
                features.set(rename[node], np.asarray(dataset.features.get_view(node)))
            interactions = InteractionStore(num_dims=dataset.interactions.num_dims)
            for (u, v), vector in dataset.interactions.items():
                interactions.set_vector(rename[u], rename[v], vector.copy())
            labeled = [
                LabeledEdge(rename[item.u], rename[item.v], item.label)
                for item in workload.train_edges
            ]
            queries = [
                (rename[item.u], rename[item.v]) for item in workload.test_edges
            ]
            return graph, features, interactions, labeled, queries

        graph, features, interactions, labeled, queries = relabeled()
        deltas = _choose_deltas(graph, features, interactions)
        with _fit(_config(), graph, features, interactions, labeled) as incremental:
            added, removed, pair, delta, feat_node, new_feat = deltas
            incremental.apply_updates(
                added_edges=[added],
                removed_edges=[removed],
                interaction_deltas=[(pair[0], pair[1], delta)],
                feature_updates=[(feat_node, new_feat)],
            )
            graph_b, features_b, interactions_b, labeled_b, _ = relabeled()
            _apply_to_inputs(graph_b, features_b, interactions_b, deltas)
            with _fit(
                _config(), graph_b, features_b, interactions_b, labeled_b
            ) as scratch:
                _assert_bit_identical(incremental, scratch, queries)


def _dirtied_keys(graph, division, u, v):
    """The dirty-community rule: the ego is never a member of its own
    communities, so a delta on (u, v) touches exactly the communities of
    the common neighbourhood containing both endpoints."""
    return {
        community_key(community)
        for ego in graph.neighbors(u) & graph.neighbors(v)
        for community in division.communities_of(ego)
        if u in community and v in community
    }


def _warm_pair(pipeline, workload):
    """An interacting edge whose delta dirties only unlabeled communities
    (and at least one): the common write when labels are sparse."""
    graph, division = workload.dataset.graph, pipeline.division_
    labeled = {
        community_key(community)
        for community in labeled_communities(
            division, EdgeLabelIndex(workload.train_edges)
        )[0]
    }
    for (u, v), vector in workload.dataset.interactions.items():
        dirtied = _dirtied_keys(graph, division, u, v)
        if vector.any() and dirtied and not dirtied & labeled:
            return u, v
    raise AssertionError("tiny workload has no warm interaction target")


def _open_triangle_at_labeled_ego(workload):
    """Non-adjacent ``(a, b)``, both joined to one ego by a training edge —
    adding ``(a, b)`` re-divides that labeled ego (and ``a`` and ``b``)."""
    graph = workload.dataset.graph
    friends = defaultdict(list)
    for item in workload.train_edges:
        friends[item.u].append(item.v)
        friends[item.v].append(item.u)
    for members in friends.values():
        for a, b in itertools.combinations(members, 2):
            if not graph.has_edge(a, b):
                return a, b
    raise AssertionError("tiny workload has no open triangle at a labeled ego")


def _assert_equals_scratch_fit(pipeline, workload, read=None):
    """Every edge's served probabilities (``read``, by default the
    pipeline's own) equal a from-scratch ``fit`` on copies of the (live,
    updated) inputs, bit for bit.  Copies are safe baselines here: ``fit``
    is a function of its inputs' value (``tests/test_value_determinism.py``),
    not of their insertion history."""
    read = read or pipeline.predict_edge_proba
    dataset = workload.dataset
    with _fit(
        _config(),
        dataset.graph.copy(),
        copy.deepcopy(dataset.features),
        copy.deepcopy(dataset.interactions),
        workload.train_edges,
    ) as scratch:
        edges = list(dataset.graph.edges())
        assert np.array_equal(read(edges), scratch.predict_edge_proba(edges))


@pytest.fixture()
def fitted_tiny():
    workload = make_workload("tiny", seed=1)
    dataset = workload.dataset
    pipeline = _fit(
        _config(),
        dataset.graph,
        dataset.features,
        dataset.interactions,
        workload.train_edges,
    )
    yield pipeline, workload
    pipeline.close()


class TestWarmModels:
    def test_idempotent_readd_skips_rescore_and_refit(self, fitted_tiny):
        pipeline, workload = fitted_tiny
        edge = next(workload.dataset.graph.edges())
        report = pipeline.apply_updates(added_edges=[edge])
        assert report.num_dirty_egos >= 2
        assert report.num_redivided_egos == report.num_dirty_egos
        assert report.num_rescored_communities == 0
        assert not report.classifier_refit
        assert report.kernel_patched
        assert not report.degraded

    def test_interaction_delta_rescores_exactly_dirty_communities(
        self, fitted_tiny
    ):
        pipeline, workload = fitted_tiny
        graph = workload.dataset.graph
        division = pipeline.division_
        pair = next(
            (u, v)
            for (u, v), vector in workload.dataset.interactions.items()
            if vector.any() and graph.neighbors(u) & graph.neighbors(v)
        )
        expected = _dirtied_keys(graph, division, *pair)
        total = sum(1 for _ in division.all_communities())
        delta = np.full(workload.dataset.interactions.num_dims, 5.0)
        report = pipeline.apply_updates(
            interaction_deltas=[(pair[0], pair[1], delta)]
        )
        assert report.kernel_patched  # in-place delta compilation
        if report.classifier_refit:
            # A dirty community sat in the training set: the GBDT refits and
            # the new model re-scores everything.
            assert report.num_rescored_communities == total
        else:
            assert report.num_rescored_communities == len(expected)
            assert len(expected) < total

    def test_update_epoch_and_labeler_refit_only_when_design_moved(self, fitted_tiny):
        pipeline, workload = fitted_tiny
        dataset = workload.dataset
        epoch_before = pipeline.update_epoch
        u, v = _warm_pair(pipeline, workload)
        delta = np.full(dataset.interactions.num_dims, 2.0)
        warm = pipeline.apply_updates(interaction_deltas=[(u, v, delta)])
        assert warm.num_rescored_communities > 0
        assert warm.labeler_refit is False
        assert warm.classifier_refit is False
        assert pipeline.update_epoch == epoch_before + 1
        _assert_equals_scratch_fit(pipeline, workload)

        structural = pipeline.apply_updates(
            added_edges=[_open_triangle_at_labeled_ego(workload)]
        )
        assert structural.num_redivided_egos >= 3  # the ego, a and b at least
        assert structural.labeler_refit is True
        _assert_equals_scratch_fit(pipeline, workload)

        # A second ``fit`` starts over: a fresh labeler, trained once, never
        # the kept design matrix of the previous fit.
        labeler = pipeline.edge_labeler_
        pipeline.fit(
            dataset.graph, dataset.features, dataset.interactions, workload.train_edges
        )
        assert pipeline.edge_labeler_ is not labeler
        assert pipeline.edge_labeler_.num_model_fits == 1

    def test_a_write_does_work_proportional_to_what_it_dirtied(
        self, fitted_tiny, monkeypatch
    ):
        """Call counts, not wall-clock: a warm write trains no Phase III
        model and re-votes no community; a refit write does each once.
        (The edge index's share is counted by the test below.)"""
        pipeline, workload = fitted_tiny
        calls = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(LogisticRegression, "fit")
        counted(pipeline_module, "labeled_communities")

        u, v = _warm_pair(pipeline, workload)
        delta = np.ones(workload.dataset.interactions.num_dims)
        report = pipeline.apply_updates(interaction_deltas=[(u, v, delta)])
        assert not report.classifier_refit and not report.labeler_refit
        assert calls == Counter()

        report = pipeline.apply_updates(
            added_edges=[_open_triangle_at_labeled_ego(workload)]
        )
        assert report.classifier_refit and report.labeler_refit
        assert calls == Counter(fit=1, labeled_communities=1)

    def test_a_refit_write_divides_its_dirty_egos_in_one_call(
        self, fitted_tiny, monkeypatch
    ):
        """Counted: the write's dirty egos span several shards, and a clean
        write re-divides them all in one lockstep ``divide`` call."""
        pipeline, workload = fitted_tiny
        calls = []
        divide = executor_module.divide

        def counted(snapshot, egos, detector):
            calls.append(list(egos))
            return divide(snapshot, egos=egos, detector=detector)

        monkeypatch.setattr(executor_module, "divide", counted)
        report = pipeline.apply_updates(
            added_edges=[_open_triangle_at_labeled_ego(workload)]
        )
        assert report.num_redivided_egos >= 3  # three shards at least
        (egos,) = calls
        assert len(set(egos)) == report.num_dirty_egos == report.num_redivided_egos

    def test_the_edge_index_costs_what_a_write_dirtied(self, fitted_tiny):
        """Counted, not timed: ``fit`` compiles the Phase III edge index
        once; a warm write compiles nothing and writes exactly the rows of
        the communities it re-scored; a structural write splices, and only
        a node new to the index forces a second compile."""
        pipeline, workload = fitted_tiny
        builder = pipeline.edge_feature_builder_
        assert builder.num_compiles == 1
        written = builder.num_rows_written
        u, v = _warm_pair(pipeline, workload)
        delta = np.ones(workload.dataset.interactions.num_dims)
        warm = pipeline.apply_updates(interaction_deltas=[(u, v, delta)])
        assert not warm.classifier_refit
        assert builder.num_rows_written - written == warm.num_rescored_communities > 0
        assert builder.num_compiles == 1
        structural = pipeline.apply_updates(
            added_edges=[_open_triangle_at_labeled_ego(workload)]
        )
        assert structural.num_redivided_egos >= 3
        assert builder.num_compiles == 1
        pipeline.apply_updates(added_edges=[(u, "newcomer")])
        assert pipeline.edge_feature_builder_ is builder
        assert builder.num_compiles == 2
        _assert_equals_scratch_fit(pipeline, workload)

    def test_phase_ii_rows_and_votes_cost_what_a_write_changed(self, fitted_tiny):
        """Counted, not timed: ``fit`` computes each community's statistic
        row once and votes it once; a warm write computes exactly the rows
        it dirtied and votes nothing; a refit write computes and votes only
        the communities of the egos whose community list it replaced."""
        pipeline, workload = fitted_tiny
        builder, votes = pipeline.feature_builder_, pipeline._votes
        num_communities = pipeline.fit_summary_.num_communities
        assert builder.num_rows_computed == num_communities
        assert votes.num_voted == num_communities

        rows, voted = builder.num_rows_computed, votes.num_voted
        u, v = _warm_pair(pipeline, workload)
        delta = np.ones(workload.dataset.interactions.num_dims)
        warm = pipeline.apply_updates(interaction_deltas=[(u, v, delta)])
        assert not warm.classifier_refit
        assert builder.num_rows_computed - rows == warm.num_rescored_communities > 0
        assert votes.num_voted == voted

        rows = builder.num_rows_computed
        lists = dict(pipeline.division_.communities_by_ego)
        refit = pipeline.apply_updates(
            added_edges=[_open_triangle_at_labeled_ego(workload)]
        )
        assert refit.classifier_refit
        replaced = sum(
            len(listed)
            for ego, listed in pipeline.division_.communities_by_ego.items()
            if listed is not lists.get(ego)
        )
        assert 0 < replaced < num_communities
        assert builder.num_rows_computed - rows == replaced
        assert votes.num_voted - voted == replaced
        _assert_equals_scratch_fit(pipeline, workload)

    def test_training_time_is_zero_warm_and_positive_on_refit(self, ticking_clock):
        workload = make_workload("tiny", seed=1)
        dataset = workload.dataset
        with LoCEC(_config(), clock=ticking_clock).fit(
            dataset.graph, dataset.features, dataset.interactions, workload.train_edges
        ) as pipeline:
            warm = pipeline.apply_updates(added_edges=[next(dataset.graph.edges())])
            assert not warm.classifier_refit
            assert warm.timings.training == 0.0
            assert warm.timings.total > 0.0
            # The labeled friend sits in a community of the labeled ego, and
            # that community is in the classifier's training set.
            friend = workload.train_edges[0].v
            refit = pipeline.apply_updates(
                feature_updates=[(friend, dataset.features.get_view(friend) + 1.0)]
            )
            assert refit.classifier_refit
            assert refit.timings.training > 0.0

    def test_apply_updates_requires_fit(self):
        with pytest.raises(NotFittedError):
            LoCEC(_config()).apply_updates(added_edges=[(0, 1)])


WRITE_KINDS = ("interaction_delta", "feature_update", "add", "remove", "readd")


def _drawn_write(kind, a, b, dataset):
    """``apply_updates`` keywords for a drawn write, resolved against the
    current state of the live inputs."""
    graph = dataset.graph
    edges, nodes = sorted(graph.edges()), sorted(graph.nodes())
    u, v = edges[a % len(edges)]
    if kind == "interaction_delta":
        delta = np.full(dataset.interactions.num_dims, 1.0 + b % 3)
        return {"interaction_deltas": [(u, v, delta)]}
    if kind == "feature_update":
        node = nodes[a % len(nodes)]
        return {"feature_updates": [(node, dataset.features.get_view(node) + 1.0 + b % 3)]}
    if kind == "remove":
        return {"removed_edges": [(u, v)]}
    if kind == "readd":
        return {"added_edges": [(u, v)]}
    pairs = itertools.combinations(nodes[a % len(nodes) :] + nodes[: a % len(nodes)], 2)
    return {"added_edges": [next(pair for pair in pairs if not graph.has_edge(*pair))]}


# Each step costs a scratch fit; the drawn integers only pick targets.
@pytest.mark.slow
@settings(max_examples=4, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(WRITE_KINDS), st.integers(0, 10_000), st.integers(0, 2)),
        min_size=3,
        max_size=5,
    )
)
def test_generated_write_sequences_match_a_scratch_fit(writes):
    """After every write of a drawn sequence the pipeline equals a scratch
    ``fit`` on the current inputs, and ``labeler_refit`` says exactly whether
    the Equation 4 design matrix of the training edges moved.  The sequence
    ends in refit writes and their inverses — one that re-divides a labeled
    ego, one that changes a labeled friend's features — so the statistic
    rows and votes kept across writes are checked against a scratch fit."""
    workload = make_workload("tiny", seed=1)
    dataset = workload.dataset
    train_edges = [item.edge for item in workload.train_edges]
    with _fit(
        _config(),
        dataset.graph,
        dataset.features,
        dataset.interactions,
        workload.train_edges,
    ) as pipeline:
        design = pipeline.edge_feature_builder_.edge_features(train_edges)
        for kind, a, b in writes:
            report = pipeline.apply_updates(**_drawn_write(kind, a, b, dataset))
            design_before = design
            design = pipeline.edge_feature_builder_.edge_features(train_edges)
            assert report.labeler_refit == (not np.array_equal(design_before, design))
            _assert_equals_scratch_fit(pipeline, workload)
        edge = _open_triangle_at_labeled_ego(workload)
        friend = workload.train_edges[0].v
        saved = dataset.features.get_view(friend).copy()
        refits = []
        for deltas in (
            {"added_edges": [edge]},
            {"feature_updates": [(friend, saved + 1.0)]},
            {"removed_edges": [edge]},
            {"feature_updates": [(friend, saved)]},
        ):
            refits.append(pipeline.apply_updates(**deltas).classifier_refit)
            _assert_equals_scratch_fit(pipeline, workload)
        # The friend sits in a community of its labeled ego: a training row.
        assert refits[1] and refits[3]


def _rejected_batches(graph, interactions, features):
    """One batch per rejected kind, the bad delta behind valid ones so that
    an update validating as it goes would half-apply."""
    nodes = list(graph.nodes())
    e1, e2, e3 = list(graph.edges())[:3]
    new_edge = _first_non_edge(graph)
    pair, stored = next(
        (edge, vector) for edge, vector in interactions.items() if vector.any()
    )
    dims, width = interactions.num_dims, features.num_features
    good_delta = (pair[0], pair[1], np.ones(dims))
    good_feature = (nodes[3], np.asarray(features.get_view(nodes[3])) + 1.0)
    return [
        ("self-loop", SelfLoopError, {"added_edges": [new_edge, (nodes[0], nodes[0])]}),
        (
            "absent edge",
            EdgeNotFoundError,
            {"removed_edges": [e1, (e1[0], "nobody"), e3]},
        ),
        (
            "edge removed twice",
            EdgeNotFoundError,
            {"added_edges": [new_edge], "removed_edges": [e2, (e2[1], e2[0])]},
        ),
        (
            "wrong-length interaction delta",
            DimensionMismatchError,
            {"interaction_deltas": [good_delta, (pair[0], pair[1], np.ones(dims + 1))]},
        ),
        (
            "non-finite interaction delta",
            FeatureError,
            {
                "removed_edges": [e1],
                "interaction_deltas": [(pair[0], pair[1], np.full(dims, np.inf))],
            },
        ),
        (
            "negative stored count",
            FeatureError,
            {
                "added_edges": [new_edge],
                "interaction_deltas": [good_delta, (pair[1], pair[0], -(stored + 2.0))],
            },
        ),
        (
            "wrong-length feature vector",
            DimensionMismatchError,
            {"feature_updates": [good_feature, (nodes[4], np.zeros(width + 1))]},
        ),
        (
            "non-finite feature vector",
            FeatureError,
            {
                "interaction_deltas": [good_delta],
                "feature_updates": [(nodes[4], np.full(width, np.nan))],
            },
        ),
    ]


class TestRejectedUpdatesLeaveNoTrace:
    def test_bad_batch_raises_before_the_first_mutation(self, fitted_tiny):
        pipeline, workload = fitted_tiny
        dataset = workload.dataset
        all_edges = list(dataset.graph.edges())

        def state():
            return (
                list(dataset.graph.nodes()),
                list(dataset.graph.edges()),
                dataset.features.version,
                dataset.interactions.version,
                pipeline.update_epoch,
                pipeline.stale_egos,
                pipeline.predict_edge_proba(all_edges).tobytes(),
            )

        before = state()
        for kind, error, batch in _rejected_batches(
            dataset.graph, dataset.interactions, dataset.features
        ):
            with pytest.raises(error):
                pipeline.apply_updates(**batch)
            assert state() == before, kind

        # The pipeline is still the fitted one: a valid update on top of the
        # rejected ones matches a scratch fit on the updated inputs.
        deltas = _choose_deltas(dataset.graph, dataset.features, dataset.interactions)
        added, removed, pair, delta, feat_node, new_feat = deltas
        pipeline.apply_updates(
            added_edges=[added],
            removed_edges=[removed],
            interaction_deltas=[(pair[0], pair[1], delta)],
            feature_updates=[(feat_node, new_feat)],
        )
        baseline = make_workload("tiny", seed=1)
        _apply_to_inputs(
            baseline.dataset.graph,
            baseline.dataset.features,
            baseline.dataset.interactions,
            deltas,
        )
        with _fit(
            _config(),
            baseline.dataset.graph,
            baseline.dataset.features,
            baseline.dataset.interactions,
            baseline.train_edges,
        ) as scratch:
            _assert_bit_identical(
                pipeline, scratch, [item.edge for item in workload.test_edges]
            )

    def test_error_names_the_offending_delta(self, fitted_tiny):
        pipeline, workload = fitted_tiny
        dims = workload.dataset.interactions.num_dims
        with pytest.raises(DimensionMismatchError, match=r"interaction_deltas\[1\]"):
            pipeline.apply_updates(
                interaction_deltas=[(0, 1, np.zeros(dims)), (2, 3, np.zeros(dims - 1))]
            )
        with pytest.raises(FeatureError, match=r"feature_updates\[0\] on node 7"):
            pipeline.apply_updates(
                feature_updates=[
                    (7, np.full(workload.dataset.features.num_features, np.inf))
                ]
            )


class TestChaosDegradation:
    def test_faulted_redivision_serves_stale_then_heals(self, fitted_tiny):
        pipeline, workload = fitted_tiny
        edge = next(workload.dataset.graph.edges())
        queries = [item.edge for item in workload.test_edges[:10]]
        # Permanent faults are never retried: every shard is skipped, so
        # every dirty ego degrades to stale service immediately.
        plan = FaultPlan(
            [Fault(shard_id=shard, attempt=0, kind="permanent") for shard in range(4)]
        )
        with ServingSession(pipeline, clock=FakeClock()) as session:
            before = session.predict_proba(queries)
            report = session.apply_updates(added_edges=[edge], fault_plan=plan)
            assert report.degraded
            assert set(report.stale_egos) == set(session.stale_egos)
            assert session.stale_egos
            assert session.stats.num_degraded_updates == 1
            # Stale-but-consistent: the previous communities keep serving,
            # and an idempotent re-add changes no inputs, so the served
            # probabilities are unchanged bit for bit.
            after = session.predict_proba(queries)
            assert np.array_equal(after, before)
            # A later clean update over the same egos heals the staleness.
            healed = session.apply_updates(added_edges=[edge])
            assert not healed.degraded
            assert not session.stale_egos

    def test_replay_traffic_under_seeded_chaos(self, fitted_tiny):
        pipeline, _ = fitted_tiny
        plan = FaultPlan.random(range(4), seed=3, fault_rate=0.8, kinds=("transient",))
        with ServingSession(pipeline, clock=FakeClock()) as session:
            report = replay_traffic(
                session,
                num_batches=6,
                queries_per_batch=8,
                seed=3,
                fault_plan=plan,
            )
        # Recoverable faults: every query answered, nothing left stale.
        assert report.num_queries == 48
        assert report.num_updates == 2
        assert report.num_degraded_updates == 0
        assert report.stale_egos == ()


@pytest.fixture(scope="module")
def fitted_seed0():
    """One seed-0 ``tiny`` fit on a virtual clock; tests write to copies of it.
    Partitions are a function of the graph's value, so a copy divides like
    its source."""
    workload = make_workload("tiny", seed=0)
    dataset = workload.dataset
    pipeline = LoCEC(_config(), clock=FakeClock()).fit(
        dataset.graph, dataset.features, dataset.interactions, workload.train_edges
    )
    return pipeline, dataset


# A fault on attempt 0 or 1 of one of the (at most four) re-division shards;
# the default budget of three attempts always leaves a clean last one.
RECOVERABLE_FAULTS = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 1), st.sampled_from(("transient", "hang", "kill"))
    ),
    unique_by=lambda fault: fault[:2],
    max_size=8,
)


def _plan(faults):
    return FaultPlan(Fault(s, a, kind, duration=0.01) for s, a, kind in faults)


@pytest.fixture(scope="module")
def clean_writes(fitted_seed0):
    """Each drawn write applied once, with no fault plan, to a copy of the
    seed-0 fit: ``(report, edges, probabilities)`` after it.  Hypothesis
    draws one write under many fault plans, and both tests draw the same
    writes; the clean side is computed once per write."""
    pipeline, _ = fitted_seed0
    done = {}

    def clean_write(write):
        key = tuple((name, repr(value)) for name, value in sorted(write.items()))
        if key not in done:
            clean = copy.deepcopy(pipeline)
            report = clean.apply_updates(**write)
            edges = list(clean._graph.edges())
            done[key] = (report, edges, clean.predict_edge_proba(edges))
        return done[key]

    return clean_write


# Each example copies the fit and makes a write (~0.3 s): shrinking a
# failure ran for ~10 minutes, so these tests report the drawn example
# unshrunk (its values are an edge pick and a short fault list).
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _dirty_egos(graph, edge):
    """The egos a write on ``edge`` re-divides, in the order the executor
    shards them: ``{a, b} ∪ (N(a) ∩ N(b))`` by canonical node key."""
    u, v = edge
    return sorted({u, v} | (graph.neighbors(u) & graph.neighbors(v)), key=node_key)


class TestGeneratedFaultSchedules:
    """Seeded fault schedules through ``apply_updates``: a recoverable one
    changes nothing, a permanent one makes exactly one shard's egos stale."""

    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    @given(
        faults=RECOVERABLE_FAULTS,
        kind=st.sampled_from(("add", "remove", "readd")),
        a=st.integers(0, 10_000),
    )
    def test_recoverable_plans_leave_the_write_bit_identical(
        self, fitted_seed0, clean_writes, faults, kind, a
    ):
        pipeline, dataset = fitted_seed0
        write = _drawn_write(kind, a, 0, dataset)
        expected, edges, clean_proba = clean_writes(write)
        faulted = copy.deepcopy(pipeline)
        report = faulted.apply_updates(**write, fault_plan=_plan(faults))
        assert report.stale_egos == () and not faulted.stale_egos
        assert report.num_redivided_egos == expected.num_redivided_egos > 0
        assert np.array_equal(faulted.predict_edge_proba(edges), clean_proba)

    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    @given(
        shard=st.integers(0, 3),
        faults=RECOVERABLE_FAULTS,
        new_edge=st.booleans(),
        a=st.integers(0, 10_000),
    )
    def test_a_permanent_fault_makes_its_shards_egos_stale_until_healed(
        self, fitted_seed0, clean_writes, shard, faults, new_edge, a
    ):
        pipeline, dataset = fitted_seed0
        write = _drawn_write("add" if new_edge else "readd", a, 0, dataset)
        (edge,) = write["added_edges"]
        faults = [f for f in faults if f[0] != shard] + [(shard, 0, "permanent")]
        faulted = copy.deepcopy(pipeline)
        before = {
            ego: list(communities)
            for ego, communities in pipeline.division_.communities_by_ego.items()
        }
        _, edges, clean_proba = clean_writes(write)
        report = faulted.apply_updates(**write, fault_plan=_plan(faults))
        dirty = _dirty_egos(faulted._graph, edge)
        expected_stale = dirty[shard :: min(4, len(dirty))]
        assert report.stale_egos == tuple(expected_stale)
        assert faulted.stale_egos == frozenset(expected_stale)
        for ego in expected_stale:
            assert faulted.division_.communities_by_ego[ego] == before[ego]
        # The same edge again, with no plan: an idempotent re-add that
        # re-divides the same egos and heals them.
        healed = faulted.apply_updates(added_edges=[edge])
        assert healed.stale_egos == () and not faulted.stale_egos
        assert np.array_equal(faulted.predict_edge_proba(edges), clean_proba)


class TestServingSession:
    def test_a_read_after_a_write_sees_the_new_state(self, fitted_tiny):
        """The session keeps no results of its own: after a warm and then a
        structural write, its reads equal a scratch fit on the updated
        inputs, bit for bit."""
        pipeline, workload = fitted_tiny
        edges = list(workload.dataset.graph.edges())
        with ServingSession(pipeline, clock=FakeClock()) as session:
            before = session.predict_proba(edges)
            u, v = _warm_pair(pipeline, workload)
            delta = np.full(workload.dataset.interactions.num_dims, 4.0)
            session.apply_updates(interaction_deltas=[(u, v, delta)])
            assert not np.array_equal(session.predict_proba(edges), before)
            _assert_equals_scratch_fit(pipeline, workload, read=session.predict_proba)
            session.apply_updates(added_edges=[_open_triangle_at_labeled_ego(workload)])
            _assert_equals_scratch_fit(pipeline, workload, read=session.predict_proba)

    def test_stats_count_labeler_refits_beside_updates(self, fitted_tiny):
        pipeline, workload = fitted_tiny
        with ServingSession(pipeline, clock=FakeClock()) as session:
            u, v = _warm_pair(pipeline, workload)
            delta = np.ones(workload.dataset.interactions.num_dims)
            session.apply_updates(interaction_deltas=[(u, v, delta)])
            session.apply_updates(added_edges=[_open_triangle_at_labeled_ego(workload)])
            assert session.stats.num_updates == 2
            assert session.stats.num_labeler_refits == 1

    def test_stats_count_every_queried_edge_as_scored(self, fitted_tiny):
        """``cache_hits`` / ``cache_misses`` remain as the benchmark's shim:
        never a hit, and every queried edge scored."""
        pipeline, workload = fitted_tiny
        e1, e2 = [item.edge for item in workload.test_edges[:2]]
        with ServingSession(pipeline, clock=FakeClock()) as session:
            for batch in ([e1, e2], [e1], []):
                session.predict_proba(batch)
            stats = session.stats
            assert (stats.cache_hits, stats.cache_misses) == (0, 3)
            assert (stats.num_queries, stats.num_batches) == (3, 3)

    def test_predict_edges_and_empty_batch(self, fitted_tiny):
        pipeline, workload = fitted_tiny
        queries = [item.edge for item in workload.test_edges[:4]]
        with ServingSession(pipeline, clock=FakeClock()) as session:
            labels = session.predict_edges(queries)
            proba = session.predict_proba(queries)
            assert [int(label) for label in labels] == list(
                np.argmax(proba, axis=1)
            )
            empty = session.predict_proba([])
            assert empty.shape == (0, proba.shape[1])

    def test_lifecycle_and_validation(self, fitted_tiny):
        pipeline, workload = fitted_tiny
        session = ServingSession(pipeline, clock=FakeClock())
        session.close()
        session.close()  # idempotent
        with pytest.raises(PipelineError):
            session.predict_proba([next(workload.dataset.graph.edges())])
        with pytest.raises(TypeError):  # the session has no cache to size
            ServingSession(pipeline, cache_size=64)
        with pytest.raises(NotFittedError):
            ServingSession(LoCEC(_config()))

    def test_replay_counts_are_deterministic(self, fitted_tiny):
        pipeline, _ = fitted_tiny

        def run_replay(p):
            with ServingSession(p, clock=FakeClock()) as session:
                return replay_traffic(
                    session, num_batches=5, queries_per_batch=7, seed=11
                )

        workload = make_workload("tiny", seed=1)
        other = _fit(
            _config(),
            workload.dataset.graph,
            workload.dataset.features,
            workload.dataset.interactions,
            workload.train_edges,
        )
        try:
            first, second = run_replay(pipeline), run_replay(other)
        finally:
            other.close()
        for field in (
            "num_batches",
            "num_queries",
            "num_updates",
            "num_degraded_updates",
            "num_structural_updates",
            "stale_egos",
        ):
            assert getattr(first, field) == getattr(second, field)


class TestStreamingMoments:
    def test_welford_matches_batch_statistics(self):
        values = [0.1, 0.5, 0.2, 0.9, 0.4, 0.7, 0.3]
        moments = StreamingMoments()
        for value in values:
            moments.add(value)
        assert moments.count == len(values)
        assert moments.mean == pytest.approx(statistics.fmean(values))
        assert moments.std == pytest.approx(statistics.stdev(values))

    def test_percentiles(self):
        empty = StreamingMoments()
        assert empty.percentile(0.95) == 0.0
        constant = StreamingMoments()
        for _ in range(5):
            constant.add(2.5)
        assert constant.percentile(0.99) == 2.5
        spread = StreamingMoments()
        for value in (0.1, 0.4, 0.9, 1.6):
            spread.add(value)
        assert (
            spread.percentile(0.50)
            < spread.percentile(0.95)
            < spread.percentile(0.99)
        )
        with pytest.raises(ValueError):
            spread.percentile(1.0)
        summary = spread.summary()
        assert set(summary) == {"count", "mean", "std", "p50", "p95", "p99"}

    def test_percentiles_of_a_bimodal_sample_are_measured(self):
        """Batch latencies are bimodal — fast batches beside slow ones.  A
        normal approximation puts p50 between the modes and p99 below the
        slow one; the histogram reads both to within its bucket width."""
        sample = [0.4e-3] * 95 + [1.44e-3] * 5
        moments = StreamingMoments()
        for value in sample:
            moments.add(value)
        for q in (0.50, 0.99):
            expected = np.percentile(sample, 100 * q)
            assert moments.percentile(q) == pytest.approx(expected, rel=0.05), q

    def test_merge_equals_one_accumulator_over_both_samples(self):
        values = [0.3e-3, 2.0e-3, 0.5e-3, 1.1e-3, 7.0e-3, 0.2e-3, 0.6e-3]
        left, right, both = StreamingMoments(), StreamingMoments(), StreamingMoments()
        for position, value in enumerate(values):
            (left if position % 3 else right).add(value)
            both.add(value)
        merged = left.merge(right)
        assert merged.count == both.count
        assert merged.buckets == both.buckets
        assert (merged.low, merged.high) == (both.low, both.high)
        assert merged.mean == pytest.approx(both.mean)
        assert merged.std == pytest.approx(both.std)
        assert merged.summary() == pytest.approx(both.summary())
        assert StreamingMoments().merge(StreamingMoments()).count == 0


def test_resource_owners_close_and_work_as_context_managers():
    # The executor and the two public entry points share one close surface:
    # ``close()`` and the ``with`` form.
    for owner in (ShardedDivisionExecutor, ServingSession, LoCEC):
        for method in ("close", "__enter__", "__exit__"):
            assert callable(getattr(owner, method, None)), (owner.__name__, method)
