"""Parity and behaviour tests for the histogram GBDT split search.

The exactness contract of :mod:`repro.ml.hist`: whenever every feature has
at most ``max_bins`` distinct values, the binned split search must choose
splits **identical** to the exact vectorized search
(:func:`repro.ml.forest.best_split_array`) — same split features, same
(bit-equal) thresholds, same row partitions, same leaf numbering — because
every candidate boundary and its threshold midpoint coincide with an exact
candidate.  Gains are accumulated per bin instead of per sorted row, so
leaf *values* may differ in the last ulp; structure may not differ at all.

Beyond the bin budget the search is approximate (thresholds snap to
quantile bin edges); those tests assert consistency (training rows split
the way the codes said they would) and model quality, not equality.

The level-wise, class-batched grower is held to a second contract, in
every regime: it must equal, bit for bit, the recursive one-tree-at-a-time
grower it replaced (``tests/hist_reference.py``), and make at most one
histogram pass over rows per level of a round.

A fit picks its split search from its row count alone; a test that needs
the histogram route on a small design lowers
:data:`~repro.ml.gbdt.HIST_AUTO_MIN_ROWS` for its duration, and the growers
are also called directly.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GBDTConfig
from repro.exceptions import ModelConfigError
from repro.ml.forest import FeaturePresort, ForestTensor, RegressionTreeConfig, grow_exact
from repro.ml.gbdt import HIST_AUTO_MIN_ROWS, GradientBoostedClassifier
from repro.ml.hist import BinnedDataset, HistTreeGrower
from tests.exact_reference import (
    apply_nodes,
    assert_forest_is,
    forest_leaf_indices,
    node_depth,
)
from tests.hist_reference import (
    ReferenceHistTreeGrower,
    reference_boosted_fit,
    reference_tree_fit,
)
from tests.test_ml_forest import grow_hist, grow_tree

SEEDS = (0, 1, 2, 3, 4)


def random_tree_problem(seed: int, n: int = 150, num_features: int = 5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, num_features))
    # A coarse column exercises duplicate values / per-value bins heavily.
    X[:, 0] = np.round(X[:, 0] * 2.0) / 2.0
    gradients = rng.normal(size=n)
    hessians = np.abs(rng.normal(size=n)) + 0.05
    return X, gradients, hessians


def random_classification_problem(seed: int, n: int = 120, num_classes: int = 3):
    rng = np.random.default_rng(seed + 100)
    X = rng.normal(size=(n, 4))
    y = rng.integers(0, num_classes, size=n)
    return X, y


STRUCTURE = ("feature", "threshold", "left", "right", "leaf_id")
"""A flattened tree's arrays bar ``value``, which the exactness regime may
perturb in the last ulp."""


def assert_same_structure(actual, expected):
    for name in STRUCTURE:
        np.testing.assert_array_equal(
            getattr(actual, name), getattr(expected, name), err_msg=name
        )


@pytest.fixture
def hist_route(monkeypatch):
    """Every product fit in the test grows by the histogram search."""
    monkeypatch.setattr("repro.ml.gbdt.HIST_AUTO_MIN_ROWS", 0)


def routed_hist():
    """:func:`hist_route` as a context manager, for hypothesis tests."""
    return mock.patch("repro.ml.gbdt.HIST_AUTO_MIN_ROWS", 0)


def assert_same_forest(actual, expected):
    for name in ForestTensor.__slots__:
        np.testing.assert_array_equal(
            getattr(actual, name), getattr(expected, name), err_msg=name
        )


class TestBinnedDataset:
    def test_exact_features_one_bin_per_value(self):
        X = np.array([[3.0], [1.0], [3.0], [2.0], [1.0]])
        binned = BinnedDataset.from_matrix(X, max_bins=8)
        assert binned.exact[0]
        assert binned.num_bins[0] == 3
        assert np.array_equal(binned.codes[:, 0], [2, 0, 2, 1, 0])
        assert np.array_equal(binned.bin_values[0], [1.0, 2.0, 3.0])

    def test_quantile_features_respect_bin_budget(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 2))
        binned = BinnedDataset.from_matrix(X, max_bins=16)
        assert not binned.exact.any()
        assert (binned.num_bins <= 16).all()
        # Codes are order-preserving: sorting by code never contradicts the
        # raw values, so "code <= b" is a threshold split.
        for feature in range(2):
            order = np.argsort(X[:, feature], kind="mergesort")
            codes = binned.codes[order, feature]
            assert (np.diff(codes) >= 0).all()

    def test_quantile_partition_consistent_with_thresholds(self):
        # The rows a boundary sends left must be exactly the rows the
        # real-valued threshold sends left — otherwise training and
        # inference would disagree.
        rng = np.random.default_rng(1)
        column = rng.normal(size=(400, 1))
        binned = BinnedDataset.from_matrix(column, max_bins=8)
        cuts = binned.edges[0]
        for boundary in range(binned.num_bins[0] - 1):
            threshold = binned.boundary_threshold(
                0, boundary, np.bincount(binned.codes[:, 0])
            )
            by_code = binned.codes[:, 0] <= boundary
            by_value = column[:, 0] <= threshold
            assert np.array_equal(by_code, by_value)
        assert cuts.size == binned.num_bins[0] - 1

    def test_exact_threshold_skips_values_absent_from_node(self):
        # Node holding only values {1, 5} of global {1, 3, 5}: the boundary
        # after bin(1) must produce the exact search's midpoint 3.0, not the
        # global-adjacent midpoint 2.0.
        X = np.array([[1.0], [3.0], [5.0]])
        binned = BinnedDataset.from_matrix(X, max_bins=8)
        node_counts = np.array([1, 0, 1])  # value 3 not present in the node
        assert binned.boundary_threshold(0, 0, node_counts) == 3.0
        assert binned.boundary_threshold(0, 1, node_counts) == 3.0

    def test_max_bins_validation(self):
        with pytest.raises(ModelConfigError):
            BinnedDataset.from_matrix(np.zeros((4, 1)), max_bins=1)
        with pytest.raises(ModelConfigError):
            RegressionTreeConfig(max_bins=0).validate()
        with pytest.raises(ModelConfigError):
            GBDTConfig(max_bins=1).validate()


class TestBackendRouting:
    def test_auto_prefers_hist_above_row_crossover(self):
        # The row count alone picks the split search: one row short of the
        # crossover a fit makes no histogram pass, at it at most one per
        # level of a round.
        rounds, depth = 2, 2
        rng = np.random.default_rng(0)
        X = rng.normal(size=(HIST_AUTO_MIN_ROWS, 3))
        y = (X[:, 0] > 0).astype(int)
        below = GradientBoostedClassifier(num_rounds=rounds, max_depth=depth)
        assert below.fit(X[:-1], y[:-1]).num_hist_passes_ == 0
        at = GradientBoostedClassifier(num_rounds=rounds, max_depth=depth).fit(X, y)
        assert 1 <= at.num_hist_passes_ <= rounds * depth

    def test_auto_tree_resolves_at_fit_time(self, monkeypatch):
        # The route is the fit's, not the model's: one model refitted on
        # either side of the crossover grows each time by the search its
        # rows call for, and equals a fresh model's fit.
        monkeypatch.setattr("repro.ml.gbdt.HIST_AUTO_MIN_ROWS", 100)
        X, y = random_classification_problem(0, n=160)
        model = GradientBoostedClassifier(num_rounds=2)
        for rows, hist in ((99, False), (100, True), (99, False)):
            model.fit(X[:rows], y[:rows])
            assert (model.num_hist_passes_ > 0) == hist
            fresh = GradientBoostedClassifier(num_rounds=2).fit(X[:rows], y[:rows])
            assert_same_forest(model.forest_, fresh.forest_)


class TestExactnessParity:
    """max_bins >= distinct values per feature: splits identical to exact."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tree_structure_identical(self, seed):
        X, gradients, hessians = random_tree_problem(seed)
        config = RegressionTreeConfig(max_depth=4, min_samples_leaf=3, max_bins=512)
        exact, _ = grow_exact(FeaturePresort.from_matrix(X), gradients, hessians, config)
        hist, _ = grow_hist(X, gradients, hessians, config)
        assert_same_structure(hist, exact)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tree_predictions_match_to_ulp(self, seed):
        # Structure is identical; leaf values are sums associated per bin
        # instead of per sorted row, so allow last-ulp differences only.
        X, gradients, hessians = random_tree_problem(seed)
        config = RegressionTreeConfig(max_depth=5, max_bins=512)
        array_tree = grow_tree("array", X, gradients, hessians, config)
        hist_tree = grow_tree("hist", X, gradients, hessians, config)
        fresh = np.random.default_rng(seed + 50).normal(size=(60, X.shape[1]))
        for batch in (X, fresh):
            np.testing.assert_allclose(
                array_tree.predict(batch), hist_tree.predict(batch), rtol=1e-12
            )
            # Identical thresholds => identical leaf routing.
            assert np.array_equal(array_tree.apply(batch), hist_tree.apply(batch))

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_boosted_ensemble_structure_identical(self, seed, monkeypatch):
        X, y = random_classification_problem(seed)
        kwargs = dict(num_rounds=6, max_depth=3, max_bins=512)
        array_model = GradientBoostedClassifier(**kwargs).fit(X, y)
        monkeypatch.setattr("repro.ml.gbdt.HIST_AUTO_MIN_ROWS", 0)
        hist_model = GradientBoostedClassifier(**kwargs).fit(X, y)
        assert array_model.num_hist_passes_ == 0 < hist_model.num_hist_passes_
        assert_same_structure(hist_model.forest_, array_model.forest_)
        np.testing.assert_array_equal(hist_model.forest_.roots, array_model.forest_.roots)
        np.testing.assert_allclose(
            array_model.predict_proba(X), hist_model.predict_proba(X), rtol=1e-9
        )
        assert np.array_equal(array_model.predict(X), hist_model.predict(X))
        assert np.array_equal(
            forest_leaf_indices(array_model.forest_, X),
            forest_leaf_indices(hist_model.forest_, X),
        )

    def test_min_samples_leaf_respected(self):
        X, gradients, hessians = random_tree_problem(2, n=80)
        config = RegressionTreeConfig(max_depth=6, min_samples_leaf=9, max_bins=512)
        tree = grow_tree("hist", X, gradients, hessians, config)
        _, counts = np.unique(tree.apply(X), return_counts=True)
        assert (counts >= 9).all()

    def test_single_value_matrix_grows_single_leaf(self):
        X = np.ones((8, 2))
        tree = grow_tree("hist", X, np.full(8, -1.0), np.ones(8))
        assert tree.num_leaves == 1
        assert np.array_equal(tree.apply(X), np.zeros(8, dtype=np.int64))


class TestQuantileRegime:
    """max_bins < distinct values: approximate but consistent and competitive."""

    def test_training_partition_matches_inference(self):
        # Every internal node's threshold must route the training rows the
        # same way the bin codes did during growth: the leaf values the
        # grower recorded off its code partition equal a walk of the tree,
        # and every leaf the walk reaches holds one recorded value.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        gradients = rng.normal(size=300)
        hessians = np.abs(rng.normal(size=300)) + 0.05
        config = RegressionTreeConfig(max_depth=5, max_bins=16)
        tree = grow_tree("hist", X, gradients, hessians, config)
        assert not BinnedDataset.from_matrix(X, 16).exact.any()
        np.testing.assert_array_equal(tree.values, tree.predict(X))
        leaves = tree.apply(X)
        for leaf_id in np.unique(leaves):
            assert np.unique(tree.values[leaves == leaf_id]).size == 1
        assert tree.num_leaves > 8

    def test_coarse_bins_still_learn(self, hist_route):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(400, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = GradientBoostedClassifier(num_rounds=15, num_classes=2, max_bins=16).fit(X, y)
        assert float((model.predict(X) == y).mean()) > 0.9

    def test_hist_loss_tracks_exact_loss(self, monkeypatch):
        X, y = random_classification_problem(8, n=500)
        array_model = GradientBoostedClassifier(num_rounds=8).fit(X, y)
        monkeypatch.setattr("repro.ml.gbdt.HIST_AUTO_MIN_ROWS", 0)
        hist_model = GradientBoostedClassifier(num_rounds=8, max_bins=32).fit(X, y)
        assert (
            hist_model.train_loss_history_[-1]
            <= array_model.train_loss_history_[-1] * 1.25
        )


class TestSubtraction:
    def test_sibling_subtraction_equals_direct_accumulation(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        gradients = rng.normal(size=200)
        hessians = np.abs(rng.normal(size=200)) + 0.05
        binned = BinnedDataset.from_matrix(X, max_bins=64)
        reference = ReferenceHistTreeGrower(
            binned, gradients, hessians, RegressionTreeConfig(max_depth=3)
        )
        indices = np.arange(200)
        parent = reference.accumulate(indices)
        left = indices[: 200 // 3]
        right = indices[200 // 3 :]
        small = reference.accumulate(left)
        derived_right = tuple(p - s for p, s in zip(parent, small))
        direct_right = reference.accumulate(right)
        assert np.array_equal(derived_right[0], direct_right[0])  # counts: exact
        np.testing.assert_allclose(derived_right[1], direct_right[1], atol=1e-12)
        np.testing.assert_allclose(derived_right[2], direct_right[2], atol=1e-12)

    def test_grower_derives_the_larger_child_like_the_reference(self):
        # A derived histogram can hold a last-ulp residue where a direct one
        # holds 0.0 (an empty bin), which breaks gain ties between
        # boundaries differently: a deep tree on coarse bins picks other
        # thresholds unless the grower accumulates exactly the children the
        # reference did and derives the others the same way.
        X, gradients, hessians = random_tree_problem(5, n=400)
        config = RegressionTreeConfig(max_depth=6, min_samples_leaf=1, max_bins=16)
        tensor, values = grow_hist(X, gradients, hessians, config)
        root, expected, _ = reference_tree_fit(config, X, gradients, hessians)
        assert_forest_is(ForestTensor([tensor]), [root])
        np.testing.assert_array_equal(values, expected)


@st.composite
def grower_problems(draw):
    """A design from the grower's corners, plus K gradient/hessian columns.

    Columns are rounded (tie-heavy), constant or continuous; ``max_bins``
    may fall below a column's distinct count (the quantile regime); some
    hessians are zero, which with ``reg_lambda = 0`` gives NaN gains; and
    small designs with large ``min_samples_leaf`` leave nodes below
    ``2 * min_samples_leaf`` rows.
    """
    num_rows = draw(st.integers(2, 60))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("rounded", "constant", "continuous")))
        if kind == "constant":
            values = st.just(draw(st.sampled_from((0.0, -1.5, 3.0))))
        elif kind == "rounded":
            values = st.sampled_from((-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0))
        else:
            values = st.floats(-4.0, 4.0, allow_nan=False, width=32)
        columns.append(draw(st.lists(values, min_size=num_rows, max_size=num_rows)))
    X = np.array(columns, dtype=np.float64).T
    num_trees = draw(st.sampled_from((1, 2, 3, 5)))
    weights = st.floats(-2.0, 2.0, allow_nan=False, width=32)
    shape = (num_rows, num_trees)
    size = num_rows * num_trees
    gradients = np.array(
        draw(st.lists(weights, min_size=size, max_size=size))
    ).reshape(shape)
    hessians = np.abs(gradients[::-1]) + draw(st.sampled_from((0.0, 0.1)))
    if draw(st.booleans()):
        hessians[: num_rows // 2] = 0.0  # zero-hessian rows
    config = RegressionTreeConfig(
        max_depth=draw(st.integers(1, 8)),
        min_samples_leaf=draw(st.integers(1, 4)),
        reg_lambda=draw(st.sampled_from((0.0, 1.0))),
        gamma=draw(st.sampled_from((0.0, 0.05, 0.5))),
        max_bins=draw(st.sampled_from((2, 3, 5, 8, 256))),
    )
    return X, gradients, hessians, config


@st.composite
def boosting_problems(draw):
    """A tie-heavy classification design and boosting settings over K."""
    X, _, _, config = draw(grower_problems())
    num_classes = draw(st.sampled_from((2, 3, 5)))
    labels = st.integers(0, num_classes - 1)
    y = np.array(draw(st.lists(labels, min_size=len(X), max_size=len(X))))
    kwargs = dict(
        num_classes=num_classes,
        num_rounds=draw(st.integers(1, 3)),
        max_depth=config.max_depth,
        min_samples_leaf=config.min_samples_leaf,
        reg_lambda=config.reg_lambda,
        gamma=config.gamma,
        max_bins=config.max_bins,
    )
    return X, y, kwargs


class TestReferenceParity:
    """The level-wise, class-batched grower against the recursive
    one-tree-at-a-time grower it replaced (``tests/hist_reference.py``):
    bit-identical trees, leaf ids, training leaf values and losses."""

    @given(problem=grower_problems())
    @settings(max_examples=80, deadline=None)
    def test_a_round_of_trees_equals_one_reference_tree_each(self, problem):
        X, gradients, hessians, config = problem
        binned = BinnedDataset.from_matrix(X, config.max_bins)
        with np.errstate(all="ignore"):
            tensors, values = HistTreeGrower(binned, config).grow(gradients, hessians)
            for tree_index, tensor in enumerate(tensors):
                root, expected, _ = reference_tree_fit(
                    config,
                    X,
                    gradients[:, tree_index],
                    hessians[:, tree_index],
                    binned=binned,
                )
                assert_forest_is(ForestTensor([tensor]), [root])
                np.testing.assert_array_equal(values[:, tree_index], expected)
                np.testing.assert_array_equal(
                    forest_leaf_indices(ForestTensor([tensor]), X)[:, 0],
                    [leaf.leaf_id for leaf in apply_nodes(root, X)],
                )

    @given(problem=boosting_problems())
    @settings(max_examples=40, deadline=None)
    def test_boosted_fit_equals_the_reference_fit(self, problem):
        X, y, kwargs = problem
        with np.errstate(all="ignore"), routed_hist():
            model = GradientBoostedClassifier(**kwargs).fit(X, y)
            roots, leaf_values, history, _ = reference_boosted_fit(
                GradientBoostedClassifier(**kwargs), X, y
            )
            np.testing.assert_array_equal(
                forest_leaf_indices(model.forest_, X),
                np.column_stack(
                    [[leaf.leaf_id for leaf in apply_nodes(root, X)] for root in roots]
                ),
            )
        assert_forest_is(model.forest_, roots)
        np.testing.assert_array_equal(model.train_leaf_values_, leaf_values)
        np.testing.assert_array_equal(model.train_loss_history_, history)

    def test_a_deep_tree_cut_into_bounded_stacks(self, monkeypatch):
        # Two nodes' histograms per stack: a depth-12 tree's wide levels are
        # cut into many stacks, so it makes more passes than it has levels,
        # and still equals the reference.
        X, gradients, hessians = random_tree_problem(9, n=400)
        config = RegressionTreeConfig(max_depth=12, min_samples_leaf=1, max_bins=16)
        binned = BinnedDataset.from_matrix(X, config.max_bins)
        monkeypatch.setattr(
            "repro.ml.hist._STACK_CELLS", 2 * binned.num_features * binned.hist_width
        )
        grower = HistTreeGrower(binned, config)
        tensors, values = grower.grow(gradients[:, None], hessians[:, None])
        root, expected, _ = reference_tree_fit(config, X, gradients, hessians, binned)
        assert node_depth(root) > 6
        assert grower.num_passes > config.max_depth
        assert_forest_is(ForestTensor(tensors), [root])
        np.testing.assert_array_equal(values[:, 0], expected)


class TestCountedPasses:
    """Histograms are accumulated once per level, not once per node."""

    @pytest.fixture(scope="class")
    def tiny_design(self):
        from repro.core import LoCEC, LoCECConfig
        from repro.synthetic import make_workload

        workload = make_workload("tiny", seed=0)
        captured = []
        fit = GradientBoostedClassifier.fit

        def capture(model, X, y):
            captured.append((np.array(X), np.array(y)))
            return fit(model, X, y)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GradientBoostedClassifier, "fit", capture)
            LoCEC(LoCECConfig.locec_xgb()).fit(
                workload.dataset.graph,
                workload.dataset.features,
                workload.dataset.interactions,
                workload.train_edges,
            )
        return captured[0]

    @pytest.mark.parametrize("num_classes", [3, 5])
    @pytest.mark.parametrize("num_rounds,max_depth", [(4, 3), (3, 5)])
    def test_a_boosted_fit_makes_at_most_one_pass_per_level(
        self, tiny_design, num_classes, num_rounds, max_depth, hist_route
    ):
        X, y = tiny_design
        kwargs = dict(num_rounds=num_rounds, max_depth=max_depth, num_classes=num_classes)
        model = GradientBoostedClassifier(**kwargs).fit(X, y)
        assert 0 < model.num_hist_passes_ <= num_rounds * max_depth
        # The recursive grower made one pass per accumulated node.
        _, _, _, passes = reference_boosted_fit(
            GradientBoostedClassifier(**kwargs), X, y
        )
        assert passes > num_rounds * max_depth

    def test_a_lone_tree_makes_at_most_one_pass_per_level(self, tiny_design):
        X, y = tiny_design
        gradients = (y == 0) - 0.5
        hessians = np.full(len(y), 0.25)
        config = RegressionTreeConfig(max_depth=4)
        grower = HistTreeGrower(BinnedDataset.from_matrix(X, config.max_bins), config)
        grower.grow(gradients[:, None], hessians[:, None])
        assert 0 < grower.num_passes <= 4


class TestPipelineIntegration:
    def test_gbdt_community_classifier_accepts_hist(self, monkeypatch):
        """Above the row crossover the classifier's default route is hist."""
        from repro.core.aggregation import FeatureMatrixBuilder
        from repro.core.community_classifier import GBDTCommunityClassifier
        from tests.test_ml_forest import random_stores_and_communities

        features, interactions, communities = random_stores_and_communities(0)
        labels = [index % 3 for index in range(len(communities))]
        builder = FeatureMatrixBuilder(features, interactions, k=6)
        monkeypatch.setattr("repro.ml.gbdt.HIST_AUTO_MIN_ROWS", len(communities))
        classifier = GBDTCommunityClassifier(
            builder, config=GBDTConfig(num_rounds=4)
        ).fit(communities, labels)
        assert classifier._model.num_hist_passes_ > 0
        proba = classifier.predict_proba(communities)
        assert proba.shape == (len(communities), 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        vectors = classifier.result_vectors(communities)
        assert vectors.shape == (len(communities), 6)
