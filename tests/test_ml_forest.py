"""Parity tests: the array-backed ML model layer must match its oracle.

``backend="array"`` routes tree fitting through the vectorized split search
(:func:`repro.ml.forest.best_split_array`) and all inference through the
flattened :class:`TreeTensor` / :class:`ForestTensor` kernels.  The oracle,
``tests/exact_reference.py``, scans each node feature by feature and walks
``_TreeNode`` pointers row by row; both execute the same float64 operations
in the same order, so fitted splits, predictions, probabilities and the
LoCEC-XGB leaf-value embedding must be **bit-identical** — this suite
sweeps randomized regression targets, boosted multi-class problems,
hypothesis-generated tie-heavy matrices (the presorted split search orders
equal values by rank code, so ties are where it could part from the scalar
scan), the Phase II community classifier and the direct Phase2Kernel CNN
tensor path, plus the iterative-depth regression test.  Parametrized cases
name the oracle ``"node"``.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.community_classifier import GBDTCommunityClassifier
from repro.core.config import GBDTConfig
from repro.core.division import LocalCommunity
from repro.exceptions import DimensionMismatchError, ModelConfigError, NotFittedError
from repro.ml.forest import (
    FeaturePresort,
    ForestTensor,
    TreeTensor,
    resolve_ml_backend,
)
from repro.ml.gbdt import GradientBoostedClassifier
from repro.ml.tree import GradientRegressionTree, RegressionTreeConfig, _TreeNode
from tests.exact_reference import (
    ReferenceBoostedClassifier,
    ReferenceRegressionTree,
    forest_leaf_indices,
    node_depth,
)

SEEDS = (0, 1, 2, 3, 4)


def random_tree_problem(seed: int, n: int = 150, num_features: int = 5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, num_features))
    # Duplicate feature values exercise the cannot-split-between-equal mask.
    X[:, 0] = np.round(X[:, 0] * 2.0) / 2.0
    gradients = rng.normal(size=n)
    hessians = np.abs(rng.normal(size=n)) + 0.05
    return X, gradients, hessians


def random_classification_problem(seed: int, n: int = 120, num_classes: int = 3):
    rng = np.random.default_rng(seed + 100)
    X = rng.normal(size=(n, 4))
    y = rng.integers(0, num_classes, size=n)
    return X, y


def make_tree(config=None, backend="auto"):
    """A regression tree on ``backend``; ``"node"`` names the oracle."""
    if backend == "node":
        return ReferenceRegressionTree(config)
    return GradientRegressionTree(config, backend=backend)


def make_model(backend="auto", **kwargs):
    """A boosted classifier on ``backend``; ``"node"`` names the oracle."""
    if backend == "node":
        return ReferenceBoostedClassifier(**kwargs)
    return GradientBoostedClassifier(backend=backend, **kwargs)


def flatten_structure(node: _TreeNode) -> list[tuple]:
    """Preorder (feature, threshold, value, leaf_id) tuples of a fitted tree."""
    out: list[tuple] = []
    stack = [node]
    while stack:
        current = stack.pop()
        out.append((current.feature, current.threshold, current.value, current.leaf_id))
        if current.feature is not None:
            stack.append(current.right)
            stack.append(current.left)
    return out


class TestBackendResolution:
    def test_auto_resolves_to_array_with_numpy(self):
        assert resolve_ml_backend("auto") == "array"
        assert resolve_ml_backend("array") == "array"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModelConfigError):
            resolve_ml_backend("tensor")
        # The pointer-walk oracle is reached in tests/exact_reference.py,
        # not through a backend name.
        with pytest.raises(ModelConfigError):
            resolve_ml_backend("node")
        with pytest.raises(ModelConfigError):
            GradientBoostedClassifier(backend="node")
        with pytest.raises(ModelConfigError):
            GradientRegressionTree(backend="csr")
        with pytest.raises(ModelConfigError):
            GradientBoostedClassifier(backend="csr")


class TestSplitThreshold:
    """Between adjacent doubles the midpoint rounds up to the upper value; a
    threshold equal to it would send the rows grown into the right leaf to
    the left one (``x <= threshold`` goes left)."""

    @pytest.mark.parametrize("backend", ("node", "array", "hist"))
    def test_adjacent_doubles_keep_training_rows_in_their_leaf(self, backend):
        # Column 5 of division_dense's design holds this pair.
        lo, hi = 0.1818181818181818, 0.18181818181818182
        assert np.nextafter(lo, 1.0) == hi and 0.5 * (lo + hi) == hi
        X = np.array([[lo], [lo], [hi], [hi]])
        config = RegressionTreeConfig(max_depth=1, min_samples_leaf=1)
        tree = make_tree(config, backend).fit(
            X, np.array([-1.0, -1.0, 1.0, 1.0]), np.ones(4)
        )
        assert tree.root_.threshold == lo
        np.testing.assert_array_equal(
            tree.predict(X), [2.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0, -2.0 / 3.0]
        )


class TestTreeParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fitted_splits_bit_identical(self, seed):
        X, gradients, hessians = random_tree_problem(seed)
        config = RegressionTreeConfig(max_depth=4, min_samples_leaf=3)
        node_tree = ReferenceRegressionTree(config).fit(X, gradients, hessians)
        array_tree = GradientRegressionTree(config, backend="array").fit(
            X, gradients, hessians
        )
        assert flatten_structure(node_tree.root_) == flatten_structure(
            array_tree.root_
        )
        assert node_tree.num_leaves_ == array_tree.num_leaves_

    @pytest.mark.parametrize("seed", SEEDS)
    def test_predict_apply_leaf_values_bit_identical(self, seed):
        X, gradients, hessians = random_tree_problem(seed)
        config = RegressionTreeConfig(max_depth=5)
        node_tree = ReferenceRegressionTree(config).fit(X, gradients, hessians)
        array_tree = GradientRegressionTree(config, backend="array").fit(
            X, gradients, hessians
        )
        fresh = np.random.default_rng(seed + 50).normal(size=(60, X.shape[1]))
        for batch in (X, fresh, fresh[0]):
            assert np.array_equal(node_tree.predict(batch), array_tree.predict(batch))
            assert np.array_equal(node_tree.apply(batch), array_tree.apply(batch))
            assert np.array_equal(
                node_tree.leaf_values(batch), array_tree.leaf_values(batch)
            )
        assert node_tree.depth == array_tree.depth

    def test_tensor_accessor_matches_node_walk(self):
        X, gradients, hessians = random_tree_problem(9)
        node_tree = ReferenceRegressionTree().fit(X, gradients, hessians)
        tensor = node_tree.tensor()  # the oracle's tree, flattened
        assert isinstance(tensor, TreeTensor)
        assert np.array_equal(tensor.predict(X), node_tree.predict(X))
        assert np.array_equal(tensor.apply(X), node_tree.apply(X))
        assert tensor.depth() == node_depth(node_tree.root_)

    def test_standalone_tree_builds_its_own_presort(self):
        # No presort handed in: the tree sorts for itself, and the result is
        # the one a boosting loop's shared presort gives (and the node scan's).
        X, gradients, hessians = random_tree_problem(7)
        config = RegressionTreeConfig(max_depth=4)
        alone = GradientRegressionTree(config, backend="array").fit(X, gradients, hessians)
        shared = GradientRegressionTree(config, backend="array").fit(
            X, gradients, hessians, presort=FeaturePresort.from_matrix(X)
        )
        node = ReferenceRegressionTree(config).fit(X, gradients, hessians)
        assert flatten_structure(alone.root_) == flatten_structure(node.root_)
        assert flatten_structure(shared.root_) == flatten_structure(node.root_)

    def test_misaligned_presort_rejected(self):
        X, gradients, hessians = random_tree_problem(8)
        presort = FeaturePresort.from_matrix(X)
        with pytest.raises(DimensionMismatchError):
            GradientRegressionTree(backend="array").fit(
                X[:32], gradients[:32], hessians[:32], presort=presort
            )

    def test_presort_of_another_width_rejected(self):
        # A presort of a 7-column matrix handed to a tree on 4 of its
        # columns would search features 4-6, which X does not have.
        X, gradients, hessians = random_tree_problem(8, num_features=7)
        presort = FeaturePresort.from_matrix(X)
        with pytest.raises(DimensionMismatchError, match=r"\(7, 150\).*\(4, 150\)"):
            GradientRegressionTree(backend="array").fit(
                X[:, :4], gradients, hessians, presort=presort
            )

    def test_rank_codes_widen_past_65536_rows(self):
        # All-distinct values: the largest rank is rows - 1, which fits
        # uint16 at exactly 65,536 rows and not one row later.
        assert FeaturePresort.from_matrix(np.arange(65536.0)[:, None]).codes.dtype == np.uint16
        rng = np.random.default_rng(0)
        X = rng.permutation(65537).astype(np.float64)[:, None]
        gradients = rng.normal(size=X.shape[0])
        hessians = np.abs(rng.normal(size=X.shape[0])) + 0.05
        presort = FeaturePresort.from_matrix(X)
        assert presort.codes.dtype == np.uint32
        assert int(presort.codes.max()) == 65536
        config = RegressionTreeConfig(max_depth=1)
        array_tree = GradientRegressionTree(config, backend="array").fit(
            X, gradients, hessians, presort=presort
        )
        node_tree = ReferenceRegressionTree(config).fit(X, gradients, hessians)
        assert array_tree.num_leaves_ == 2
        assert flatten_structure(array_tree.root_) == flatten_structure(node_tree.root_)

    def test_single_leaf_tree(self):
        X = np.ones((8, 2))
        gradients = np.full(8, -1.0)
        tree = GradientRegressionTree(backend="array").fit(X, gradients, np.ones(8))
        assert tree.num_leaves_ == 1
        assert np.array_equal(tree.apply(X), np.zeros(8, dtype=np.int64))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            GradientRegressionTree(backend="array").predict(np.zeros((2, 2)))

    def test_iterative_depth_survives_deep_chains(self):
        # A 5000-deep left chain: a recursive depth blew the interpreter
        # recursion limit (default 1000) on trees like this, in the oracle's
        # node_depth and in the product's TreeTensor.depth alike.
        leaf = _TreeNode(depth=5000, leaf_id=0)
        node = leaf
        for depth in range(4999, -1, -1):
            node = _TreeNode(
                depth=depth,
                feature=0,
                threshold=0.0,
                left=node,
                right=_TreeNode(depth=depth + 1, leaf_id=1),
            )
        assert node_depth(node) == 5000
        assert TreeTensor.from_root(node).depth() == 5000


class TestForestParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_gbdt_outputs_bit_identical(self, seed):
        X, y = random_classification_problem(seed)
        kwargs = dict(num_rounds=8, max_depth=3)
        node_model = ReferenceBoostedClassifier(**kwargs).fit(X, y)
        array_model = GradientBoostedClassifier(backend="array", **kwargs).fit(X, y)
        assert node_model.train_loss_history_ == array_model.train_loss_history_
        fresh = np.random.default_rng(seed + 200).normal(size=(40, X.shape[1]))
        for batch in (X, fresh, fresh[0]):
            assert np.array_equal(
                node_model.decision_function(batch),
                array_model.decision_function(batch),
            )
            assert np.array_equal(
                node_model.predict_proba(batch), array_model.predict_proba(batch)
            )
            assert np.array_equal(
                node_model.predict(batch), array_model.predict(batch)
            )
            assert np.array_equal(
                node_model.leaf_values(batch), array_model.leaf_values(batch)
            )
            assert np.array_equal(
                node_model.leaf_indices(batch),
                forest_leaf_indices(array_model.forest_, batch),
            )

    @pytest.mark.parametrize("backend", ("node", "array"))
    def test_proba_from_leaf_values_is_predict_proba(self, backend):
        # The one-walk scoring path: probabilities rebuilt from the leaf-value
        # embedding equal the walk-and-accumulate ones bit for bit (on the
        # oracle that is an independent per-tree loop).
        X, y = random_classification_problem(4)
        model = make_model(backend, num_rounds=6).fit(X, y)
        fresh = np.random.default_rng(204).normal(size=(30, X.shape[1]))
        for batch in (X, fresh):
            assert np.array_equal(
                model.proba_from_leaf_values(model.leaf_values(batch)),
                model.predict_proba(batch),
            )

    def test_forest_tensor_from_node_trees(self):
        X, y = random_classification_problem(5)
        node_model = ReferenceBoostedClassifier(num_rounds=4).fit(X, y)
        forest = ForestTensor.from_trees(
            [tree for round_trees in node_model.trees_ for tree in round_trees]
        )
        assert forest.num_trees == sum(map(len, node_model.trees_))
        assert np.array_equal(
            forest.leaf_values_matrix(X), node_model.leaf_values(X)
        )
        assert np.array_equal(
            forest_leaf_indices(forest, X), node_model.leaf_indices(X)
        )

    def test_array_backend_populates_forest(self):
        # Every fit stacks its forest, and every tree its tensor: inference
        # has no per-tree fallback.
        X, y = random_classification_problem(6)
        for backend in ("array", "hist"):
            model = GradientBoostedClassifier(num_rounds=2, backend=backend).fit(X, y)
            assert model.forest_ is not None
            assert model.forest_.num_trees == sum(map(len, model.trees_))
            for round_trees in model.trees_:
                assert all(tree.tensor_ is not None for tree in round_trees)


# One value palette per column kind; ``None`` draws continuous floats.
COLUMN_PALETTES = (
    (0.0,),  # all-zero column
    (3.5,),  # constant column
    (-0.0, 0.0, 1.0),  # -0.0 beside 0.0: equal values, one rank code
    (-2.0, -1.0, 0.0, 1.0, 2.0),  # integer-valued, tie-heavy
    None,
)


@st.composite
def tie_heavy_problems(draw):
    """A small classification problem whose columns are mostly ties, plus
    hyper-parameters from the corners the hand-picked cases leave out."""
    num_rows = draw(st.integers(6, 36))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        palette = draw(st.sampled_from(COLUMN_PALETTES))
        values = (
            st.sampled_from(palette)
            if palette
            else st.floats(-4.0, 4.0, allow_nan=False, width=32)
        )
        columns.append(draw(st.lists(values, min_size=num_rows, max_size=num_rows)))
    X = np.array(columns, dtype=np.float64).T
    if draw(st.booleans()):
        X = np.vstack([X, X[: num_rows // 2]])  # duplicated rows
    num_classes = draw(st.integers(2, 4))
    labels = st.integers(0, num_classes - 1)
    y = np.array(draw(st.lists(labels, min_size=len(X), max_size=len(X))))
    kwargs = dict(
        num_classes=num_classes,
        num_rounds=draw(st.integers(1, 3)),
        max_depth=draw(st.integers(1, 3)),
        min_samples_leaf=draw(st.integers(1, 5)),
        gamma=draw(st.sampled_from((0.0, 0.05, 0.5))),
        reg_lambda=draw(st.sampled_from((0.0, 1.0))),
    )
    return X, y, kwargs


class TestGeneratedParity:
    @given(problem=tie_heavy_problems())
    @settings(max_examples=60, deadline=None)
    def test_fitted_forests_bit_identical(self, problem):
        X, y, kwargs = problem
        # reg_lambda=0 can saturate a leaf (zero hessian): both backends then
        # carry the same inf/NaN, which assert_array_equal compares as equal.
        with np.errstate(all="ignore"):
            node_model = ReferenceBoostedClassifier(**kwargs).fit(X, y)
            array_model = GradientBoostedClassifier(backend="array", **kwargs).fit(X, y)
        node_forest = ForestTensor.from_trees(
            [tree for round_trees in node_model.trees_ for tree in round_trees]
        )
        for name in ForestTensor.__slots__:
            np.testing.assert_array_equal(
                getattr(node_forest, name), getattr(array_model.forest_, name), err_msg=name
            )
        np.testing.assert_array_equal(
            node_model.train_loss_history_, array_model.train_loss_history_
        )



@st.composite
def partition_problems(draw):
    """A design of tie-heavy and ulp-adjacent columns (the midpoint of two
    adjacent doubles rounds to the upper one about half the time), with
    gradients, hessians and class labels for it."""
    num_rows = draw(st.integers(4, 40))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            palette = draw(st.sampled_from([p for p in COLUMN_PALETTES if p]))
        else:
            base = draw(st.floats(-4.0, 4.0, allow_nan=False))
            palette = (base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf))
        values = st.sampled_from(palette)
        columns.append(draw(st.lists(values, min_size=num_rows, max_size=num_rows)))
    X = np.array(columns, dtype=np.float64).T
    weights = st.floats(-2.0, 2.0, allow_nan=False)
    gradients = np.array(draw(st.lists(weights, min_size=num_rows, max_size=num_rows)))
    hessians = np.abs(gradients[::-1]) + 0.1
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=num_rows, max_size=num_rows)))
    y[:3] = [0, 1, 2]
    config = dict(
        max_depth=draw(st.integers(1, 4)), min_samples_leaf=draw(st.integers(1, 3))
    )
    return X, gradients, hessians, y, config


def _walked_fit_predict(backend):
    """``fit_predict`` as a walk: grow, then predict the training rows."""
    tree_type = ReferenceRegressionTree if backend == "node" else GradientRegressionTree
    grow = tree_type.fit_predict

    def walked(self, X, *args, **kwargs):
        grow(self, X, *args, **kwargs)
        return self.predict(X)

    return mock.patch.object(tree_type, "fit_predict", walked)


def _forest(model):
    trees = [tree for round_trees in model.trees_ for tree in round_trees]
    return model.forest_ or ForestTensor.from_trees(trees)


class TestScoresFromThePartition:
    """The growers' recorded training values are ``predict(X)``, so a fit
    that reads them grows the model a fit that walks its trees grows."""

    @given(problem=partition_problems())
    @settings(max_examples=60, deadline=None)
    def test_recorded_training_values_are_predictions(self, problem):
        X, gradients, hessians, _, config = problem
        for backend in ("node", "array", "hist"):
            tree = make_tree(RegressionTreeConfig(**config), backend)
            values = tree.fit_predict(X, gradients, hessians)
            np.testing.assert_array_equal(values, tree.predict(X), err_msg=backend)

    @given(problem=partition_problems())
    @settings(max_examples=30, deadline=None)
    def test_fit_equals_a_walk_based_fit(self, problem):
        X, _, _, y, config = problem
        for backend in ("node", "array", "hist"):
            fitted = make_model(backend, num_rounds=3, **config).fit(X, y)
            with _walked_fit_predict(backend):
                walked = make_model(backend, num_rounds=3, **config).fit(X, y)
            for name in ForestTensor.__slots__:
                np.testing.assert_array_equal(
                    getattr(_forest(fitted), name),
                    getattr(_forest(walked), name),
                    err_msg=f"{backend} {name}",
                )
            assert fitted.train_loss_history_ == walked.train_loss_history_
            np.testing.assert_array_equal(fitted.train_leaf_values_, walked.leaf_values(X))

    @pytest.mark.parametrize("backend", ("array", "hist"))
    def test_an_unsampled_fit_walks_no_tree(self, backend, monkeypatch):
        X, y = random_classification_problem(2)
        walks = []
        leaf_slots = TreeTensor.leaf_slots
        monkeypatch.setattr(
            TreeTensor,
            "leaf_slots",
            lambda self, rows: walks.append(len(rows)) or leaf_slots(self, rows),
        )
        GradientBoostedClassifier(num_rounds=4, backend=backend).fit(X, y)
        assert walks == []

def random_stores_and_communities(seed: int):
    """Random Phase II stores plus communities (mirrors test_phase2_csr)."""
    from repro.graph.features import NodeFeatureStore
    from repro.graph.interactions import InteractionStore

    rng = random.Random(seed)
    features = NodeFeatureStore(["f0", "f1", "f2"])
    interactions = InteractionStore(num_dims=4)
    num_nodes = 26
    for node in range(num_nodes):
        if rng.random() < 0.8:
            features.set(node, [rng.randint(0, 5) + 0.5 for _ in range(3)])
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if rng.random() < 0.3:
                interactions.record(u, v, rng.randrange(4), rng.randint(1, 9))
    communities = []
    for index in range(14):
        size = rng.choice([1, 2, 4, 7, 10])
        members = frozenset(rng.sample(range(num_nodes + 2), size))
        tightness = {member: rng.random() for member in members}
        communities.append(
            LocalCommunity(ego=-index, members=members, tightness=tightness, index=0)
        )
    return features, interactions, communities


class TestCommunityClassifierParity:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_gbdt_community_classifier_bit_identical(self, seed):
        from repro.core.aggregation import FeatureMatrixBuilder

        features, interactions, communities = random_stores_and_communities(seed)
        labels = np.array([index % 3 for index in range(len(communities))])
        builder = FeatureMatrixBuilder(features, interactions, k=6)
        classifier = GBDTCommunityClassifier(
            builder, config=GBDTConfig(num_rounds=6)
        ).fit(communities, labels)
        probabilities = classifier.predict_proba(communities)
        vectors = classifier.result_vectors(communities)
        # The classifier's model on the same design, fitted by the oracle
        # and by the array kernels.
        design = builder.statistic_vectors(communities)
        node, array = (
            make_model(backend, num_rounds=6, num_classes=3).fit(design, labels)
            for backend in ("node", "array")
        )
        assert np.array_equal(node.predict_proba(design), array.predict_proba(design))
        assert np.array_equal(node.predict_proba(design), probabilities)
        # The Phase III leaf-value embedding r_C must match bit-for-bit too.
        assert np.array_equal(node.leaf_values(design), array.leaf_values(design))
        assert np.array_equal(
            node.leaf_values(design), classifier._model.leaf_values(design)
        )
        # r_C's probability block is derived from the leaf values, not from
        # a second walk, and still is predict_proba to the last bit.
        assert np.array_equal(vectors[:, :3], probabilities)

    def test_result_vectors_walk_the_forest_once(self, monkeypatch):
        """Once, and only over the rows the fit did not partition: the first
        scoring after the fit takes the training communities' vectors from
        it, and a later scoring walks everything it is asked for."""
        from repro.core.aggregation import FeatureMatrixBuilder

        features, interactions, communities = random_stores_and_communities(0)
        trained = communities[::2]
        labels = [index % 3 for index in range(len(trained))]
        classifier = GBDTCommunityClassifier(
            FeatureMatrixBuilder(features, interactions, k=6),
            config=GBDTConfig(num_rounds=4),
        ).fit(trained, labels)
        walks = []
        leaf_slots = ForestTensor.leaf_slots
        monkeypatch.setattr(
            ForestTensor,
            "leaf_slots",
            lambda self, X: walks.append(len(X)) or leaf_slots(self, X),
        )
        first = classifier.result_vectors(communities)
        assert walks == [len(communities) - len(trained)]
        again = classifier.result_vectors(communities)
        assert walks == [len(communities) - len(trained), len(communities)]
        np.testing.assert_array_equal(first, again)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_matrices_as_tensor_path_bit_identical(self, seed):
        """Direct Phase2Kernel->CNN tensor path vs the per-pair reference."""
        from repro.core.aggregation import FeatureMatrixBuilder, reference_feature_matrix

        features, interactions, communities = random_stores_and_communities(seed)
        for k in (3, 6, 20):  # truncation, the default, and heavy padding
            builder = FeatureMatrixBuilder(features, interactions, k=k)
            reference = np.array(
                [
                    reference_feature_matrix(c, features, interactions, k).matrix
                    for c in communities
                ]
            )[:, None]
            assert np.array_equal(reference, builder.matrices_as_tensor(communities))
        assert builder.matrices_as_tensor([]).shape == (0, 1, 20, 7)
