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
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GBDTConfig
from repro.exceptions import DimensionMismatchError, ModelConfigError
from repro.ml.forest import HIST_AUTO_MIN_ROWS, resolve_ml_backend
from repro.ml.gbdt import GradientBoostedClassifier
from repro.ml.hist import BinnedDataset, HistTreeGrower
from repro.ml.tree import GradientRegressionTree, RegressionTreeConfig
from tests.exact_reference import forest_leaf_indices
from tests.hist_reference import (
    ReferenceHistTreeGrower,
    reference_boosted_fit,
    reference_tree_fit,
)

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


def tree_structure(root) -> list[tuple]:
    """Preorder (feature, threshold, leaf_id) tuples — values excluded, they
    are compared separately with an ulp tolerance."""
    out: list[tuple] = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append((node.feature, node.threshold, node.leaf_id))
        if node.feature is not None:
            stack.append(node.right)
            stack.append(node.left)
    return out


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
    def test_hist_is_a_valid_backend_everywhere(self):
        assert resolve_ml_backend("hist") == "hist"
        GradientRegressionTree(backend="hist")
        GradientBoostedClassifier(backend="hist")

    def test_auto_prefers_hist_above_row_crossover(self):
        assert resolve_ml_backend("auto") == "array"
        assert resolve_ml_backend("auto", num_rows=HIST_AUTO_MIN_ROWS - 1) == "array"
        assert resolve_ml_backend("auto", num_rows=HIST_AUTO_MIN_ROWS) == "hist"
        # Explicit choices are never overridden by the crossover.
        assert resolve_ml_backend("array", num_rows=10**9) == "array"
        assert resolve_ml_backend("hist", num_rows=1) == "hist"

    def test_auto_tree_resolves_at_fit_time(self):
        X, gradients, hessians = random_tree_problem(0, n=64)
        tree = GradientRegressionTree(backend="auto").fit(X, gradients, hessians)
        assert tree._resolved_backend == "array"

    def test_misaligned_binned_dataset_rejected(self):
        X, gradients, hessians = random_tree_problem(0, n=64)
        full = BinnedDataset.from_matrix(X, max_bins=32)
        with pytest.raises(DimensionMismatchError):
            GradientRegressionTree(backend="hist").fit(
                X[:32], gradients[:32], hessians[:32], binned=full
            )

    def test_binned_dataset_of_another_width_rejected(self):
        # Codes of a 7-column matrix handed to a tree on 4 of its columns
        # would grow splits on features 4-6, which predict(X) cannot read.
        X, gradients, hessians = random_tree_problem(0, n=64, num_features=7)
        binned = BinnedDataset.from_matrix(X, max_bins=32)
        with pytest.raises(DimensionMismatchError, match=r"\(64, 7\).*\(64, 4\)"):
            GradientRegressionTree(backend="hist").fit(
                X[:, :4], gradients, hessians, binned=binned
            )


class TestExactnessParity:
    """max_bins >= distinct values per feature: splits identical to array."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tree_structure_identical(self, seed):
        X, gradients, hessians = random_tree_problem(seed)
        config = RegressionTreeConfig(max_depth=4, min_samples_leaf=3, max_bins=512)
        array_tree = GradientRegressionTree(config, backend="array").fit(
            X, gradients, hessians
        )
        hist_tree = GradientRegressionTree(config, backend="hist").fit(
            X, gradients, hessians
        )
        assert tree_structure(array_tree.root_) == tree_structure(hist_tree.root_)
        assert array_tree.num_leaves_ == hist_tree.num_leaves_
        assert hist_tree.tensor_ is not None  # hist builds the tensor eagerly

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tree_predictions_match_to_ulp(self, seed):
        # Structure is identical; leaf values are sums associated per bin
        # instead of per sorted row, so allow last-ulp differences only.
        X, gradients, hessians = random_tree_problem(seed)
        config = RegressionTreeConfig(max_depth=5, max_bins=512)
        array_tree = GradientRegressionTree(config, backend="array").fit(
            X, gradients, hessians
        )
        hist_tree = GradientRegressionTree(config, backend="hist").fit(
            X, gradients, hessians
        )
        fresh = np.random.default_rng(seed + 50).normal(size=(60, X.shape[1]))
        for batch in (X, fresh):
            np.testing.assert_allclose(
                array_tree.predict(batch), hist_tree.predict(batch), rtol=1e-12
            )
            # Identical thresholds => identical leaf routing.
            assert np.array_equal(array_tree.apply(batch), hist_tree.apply(batch))

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_boosted_ensemble_structure_identical(self, seed):
        X, y = random_classification_problem(seed)
        kwargs = dict(num_rounds=6, max_depth=3, max_bins=512)
        array_model = GradientBoostedClassifier(backend="array", **kwargs).fit(X, y)
        hist_model = GradientBoostedClassifier(backend="hist", **kwargs).fit(X, y)
        for array_round, hist_round in zip(array_model.trees_, hist_model.trees_):
            for array_tree, hist_tree in zip(array_round, hist_round):
                assert tree_structure(array_tree.root_) == tree_structure(
                    hist_tree.root_
                )
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
        tree = GradientRegressionTree(config, backend="hist").fit(
            X, gradients, hessians
        )
        leaves = tree.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert (counts >= 9).all()

    def test_single_value_matrix_grows_single_leaf(self):
        X = np.ones((8, 2))
        tree = GradientRegressionTree(backend="hist").fit(
            X, np.full(8, -1.0), np.ones(8)
        )
        assert tree.num_leaves_ == 1
        assert np.array_equal(tree.apply(X), np.zeros(8, dtype=np.int64))


class TestQuantileRegime:
    """max_bins < distinct values: approximate but consistent and competitive."""

    def test_training_partition_matches_inference(self):
        # Every internal node's threshold must route the training rows the
        # same way the bin codes did during growth: train predictions off a
        # freshly-traversed tensor equal the grower's leaf assignment.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        gradients = rng.normal(size=300)
        hessians = np.abs(rng.normal(size=300)) + 0.05
        config = RegressionTreeConfig(max_depth=5, max_bins=16)
        tree = GradientRegressionTree(config, backend="hist").fit(
            X, gradients, hessians
        )
        binned = BinnedDataset.from_matrix(X, 16)
        grower = HistTreeGrower(binned, config)

        def route_by_codes(node, indices):
            if node.feature is None:
                return {node.leaf_id: set(indices.tolist())}
            threshold = node.threshold
            go_left = X[indices, node.feature] <= threshold
            result = route_by_codes(node.left, indices[go_left])
            result.update(route_by_codes(node.right, indices[~go_left]))
            return result

        routed = route_by_codes(tree.root_, np.arange(300))
        leaves = tree.apply(X)
        for leaf_id, members in routed.items():
            assert set(np.flatnonzero(leaves == leaf_id).tolist()) == members
        assert grower.binned.hist_width <= 16

    def test_coarse_bins_still_learn(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(400, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = GradientBoostedClassifier(
            num_rounds=15, num_classes=2, backend="hist", max_bins=16
        ).fit(X, y)
        assert float((model.predict(X) == y).mean()) > 0.9

    def test_hist_loss_tracks_exact_loss(self):
        X, y = random_classification_problem(8, n=500)
        array_model = GradientBoostedClassifier(
            num_rounds=8, backend="array"
        ).fit(X, y)
        hist_model = GradientBoostedClassifier(
            num_rounds=8, backend="hist", max_bins=32
        ).fit(X, y)
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
        tree = GradientRegressionTree(config, backend="hist")
        values = tree.fit_predict(X, gradients, hessians)
        reference = GradientRegressionTree(config, backend="hist")
        expected, _ = reference_tree_fit(reference, X, gradients, hessians)
        assert_tensors_equal(tree.tensor_, reference.tensor_)
        np.testing.assert_array_equal(values, expected)


def assert_tensors_equal(actual, expected):
    """Every array of two Tree/ForestTensors equal, NaN matching NaN."""
    for name in type(expected).__slots__:
        np.testing.assert_array_equal(
            getattr(actual, name), getattr(expected, name), err_msg=name
        )


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
        backend="hist",
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
            roots, values = HistTreeGrower(binned, config).grow(gradients, hessians)
            for tree_index, root in enumerate(roots):
                tree = GradientRegressionTree(config, backend="hist")
                tree._install(root, X.shape[1])
                reference = GradientRegressionTree(config, backend="hist")
                expected, _ = reference_tree_fit(
                    reference,
                    X,
                    gradients[:, tree_index],
                    hessians[:, tree_index],
                    binned=binned,
                )
                assert_tensors_equal(tree.tensor_, reference.tensor_)
                assert tree.num_leaves_ == reference.num_leaves_
                np.testing.assert_array_equal(values[:, tree_index], expected)
                np.testing.assert_array_equal(tree.apply(X), reference.apply(X))

    @given(problem=boosting_problems())
    @settings(max_examples=40, deadline=None)
    def test_boosted_fit_equals_the_reference_fit(self, problem):
        X, y, kwargs = problem
        with np.errstate(all="ignore"):
            model = GradientBoostedClassifier(**kwargs).fit(X, y)
            forest, leaf_values, history, _ = reference_boosted_fit(
                GradientBoostedClassifier(**kwargs), X, y
            )
            np.testing.assert_array_equal(
                forest_leaf_indices(model.forest_, X), forest_leaf_indices(forest, X)
            )
        assert_tensors_equal(model.forest_, forest)
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
        tree = GradientRegressionTree(config, backend="hist")
        values = tree.fit_predict(X, gradients, hessians, binned=binned)
        reference = GradientRegressionTree(config, backend="hist")
        expected, _ = reference_tree_fit(reference, X, gradients, hessians, binned)
        assert tree.depth > 6
        assert tree.num_hist_passes_ > config.max_depth
        assert_tensors_equal(tree.tensor_, reference.tensor_)
        np.testing.assert_array_equal(values, expected)


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
        self, tiny_design, num_classes, num_rounds, max_depth
    ):
        X, y = tiny_design
        kwargs = dict(
            num_rounds=num_rounds,
            max_depth=max_depth,
            num_classes=num_classes,
            backend="hist",
        )
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
        tree = GradientRegressionTree(RegressionTreeConfig(max_depth=4), backend="hist")
        tree.fit(X, gradients, hessians)
        assert 0 < tree.num_hist_passes_ <= 4


class TestPipelineIntegration:
    def test_gbdt_community_classifier_accepts_hist(self, monkeypatch):
        """Above the row crossover the classifier's default route is hist."""
        from repro.core.aggregation import FeatureMatrixBuilder
        from repro.core.community_classifier import GBDTCommunityClassifier
        from tests.test_ml_forest import random_stores_and_communities

        features, interactions, communities = random_stores_and_communities(0)
        labels = [index % 3 for index in range(len(communities))]
        builder = FeatureMatrixBuilder(features, interactions, k=6)
        monkeypatch.setattr("repro.ml.forest.HIST_AUTO_MIN_ROWS", len(communities))
        classifier = GBDTCommunityClassifier(
            builder, config=GBDTConfig(num_rounds=4)
        ).fit(communities, labels)
        assert classifier._model._resolved_backend == "hist"
        proba = classifier.predict_proba(communities)
        assert proba.shape == (len(communities), 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        vectors = classifier.result_vectors(communities)
        assert vectors.shape == (len(communities), 6)
